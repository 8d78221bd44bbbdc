//! Broad-phase collision culling.
//!
//! The paper notes that broad-phase algorithms that maintain a spatial
//! structure (hash tables, kd-trees, sweep-and-prune axes) are hard to
//! parallelize — this is one of the two *serial* phases. Two interchangeable
//! algorithms are provided:
//!
//! * [`UniformGrid`] — a uniform spatial hash over sorted cells (the
//!   default, and the paper-fidelity choice: the paper's engine keeps
//!   hash-table spatial structures), and
//! * [`SweepAndPrune`] — sort-and-sweep along the X axis (the algorithm
//!   ODE's `dxSAPSpace` uses), kept as the ablation.

use parallax_math::Aabb;

use crate::shape::GeomId;

/// Work statistics produced by a broad-phase pass (consumed by the trace
/// layer to derive instruction counts).
#[derive(Debug, Default, Clone, Copy)]
pub struct BroadphaseStats {
    /// Number of enabled geoms considered.
    pub geoms: usize,
    /// Comparisons performed while sorting endpoints / hashing cells.
    pub sort_ops: usize,
    /// Candidate AABB overlap tests performed.
    pub overlap_tests: usize,
    /// Pairs emitted.
    pub pairs: usize,
}

/// A broad-phase algorithm: produces candidate geom pairs from AABBs.
pub trait Broadphase {
    /// Computes candidate overlapping pairs into `out` (cleared first),
    /// reusing `out`'s capacity across calls.
    ///
    /// `aabbs` carries `(geom, world aabb)` for every enabled geom. The
    /// emitted pairs are deduplicated, with `a < b`. [`UniformGrid`] emits
    /// them sorted, and the pipeline's determinism relies on that order
    /// (solver row order and island numbering follow it). The other
    /// implementations emit them in an order that depends only on `aabbs`.
    fn pairs_into(
        &mut self,
        aabbs: &[(GeomId, Aabb)],
        out: &mut Vec<(GeomId, GeomId)>,
    ) -> BroadphaseStats;

    /// Convenience wrapper around [`pairs_into`](Broadphase::pairs_into)
    /// allocating a fresh pair vector.
    fn pairs(&mut self, aabbs: &[(GeomId, Aabb)]) -> (Vec<(GeomId, GeomId)>, BroadphaseStats) {
        let mut out = Vec::new();
        let stats = self.pairs_into(aabbs, &mut out);
        (out, stats)
    }
}

/// Sort-and-sweep along the X axis.
///
/// Geoms are sorted by their AABB min-x; a sweep then tests each geom
/// against followers whose min-x is below its max-x. This is O(n log n +
/// n·k) and matches the serial, hard-to-parallelize profile the paper
/// describes.
///
/// The sort order persists across calls: on temporally coherent frames the
/// previous permutation is already (almost) sorted, which the
/// pattern-defeating quicksort exploits, and the reported
/// [`BroadphaseStats::sort_ops`] are the comparisons actually executed
/// rather than an n·log₂n estimate.
#[derive(Debug, Default)]
pub struct SweepAndPrune {
    // Previous frame's sort permutation, reused as the starting order.
    order: Vec<u32>,
}

impl SweepAndPrune {
    /// Creates a new sweep-and-prune broad-phase.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Broadphase for SweepAndPrune {
    fn pairs_into(
        &mut self,
        aabbs: &[(GeomId, Aabb)],
        out: &mut Vec<(GeomId, GeomId)>,
    ) -> BroadphaseStats {
        let n = aabbs.len();
        let mut stats = BroadphaseStats {
            geoms: n,
            ..Default::default()
        };
        out.clear();
        // Start from the previous frame's permutation when the population
        // is unchanged; coherent motion leaves it nearly sorted.
        if self.order.len() != n {
            self.order.clear();
            self.order.extend(0..n as u32);
        }
        let mut sort_ops = 0usize;
        self.order.sort_unstable_by(|&a, &b| {
            sort_ops += 1;
            // Tie-break equal keys by index so the final permutation does
            // not depend on the (history-dependent) starting order.
            aabbs[a as usize]
                .1
                .min
                .x
                .total_cmp(&aabbs[b as usize].1.min.x)
                .then(a.cmp(&b))
        });
        stats.sort_ops = sort_ops;

        for (i, &ia) in self.order.iter().enumerate() {
            let (ga, ba) = &aabbs[ia as usize];
            for &ib in &self.order[i + 1..] {
                let (gb, bb) = &aabbs[ib as usize];
                if bb.min.x > ba.max.x {
                    break;
                }
                stats.overlap_tests += 1;
                if ba.overlaps(bb) {
                    let (lo, hi) = if ga < gb { (*ga, *gb) } else { (*gb, *ga) };
                    out.push((lo, hi));
                }
            }
        }
        stats.pairs = out.len();
        stats
    }
}

/// Brute-force all-pairs broad-phase.
///
/// Tests every geom pair directly — O(n²), far too slow for real scenes,
/// but trivially correct. It is the reference oracle the property tests
/// compare [`SweepAndPrune`] and [`UniformGrid`] against.
#[derive(Debug, Default)]
pub struct BruteForce;

impl BruteForce {
    /// Creates the reference broad-phase.
    pub fn new() -> Self {
        BruteForce
    }
}

impl Broadphase for BruteForce {
    fn pairs_into(
        &mut self,
        aabbs: &[(GeomId, Aabb)],
        out: &mut Vec<(GeomId, GeomId)>,
    ) -> BroadphaseStats {
        let mut stats = BroadphaseStats {
            geoms: aabbs.len(),
            ..Default::default()
        };
        out.clear();
        for (i, (ga, ba)) in aabbs.iter().enumerate() {
            for (gb, bb) in &aabbs[i + 1..] {
                stats.overlap_tests += 1;
                if ba.overlaps(bb) {
                    let (lo, hi) = if ga < gb { (*ga, *gb) } else { (*gb, *ga) };
                    out.push((lo, hi));
                }
            }
        }
        stats.pairs = out.len();
        stats
    }
}

/// Uniform-grid spatial hash broad-phase.
///
/// Geoms are binned into cells of a fixed size: one `(cell key, geom)`
/// entry per covered cell, sorted, so each run of equal keys is one cell.
/// A pair is tested only in its *owner cell*, the per-axis max of the two
/// lower cell corners, which both geoms cover whenever they share any cell
/// — so each cell-sharing pair is tested exactly once, with no dedup set.
#[derive(Debug)]
pub struct UniformGrid {
    cell: f32,
    // Scratch kept across steps: sorted `(cell key, geom index)` entries,
    // each geom's lower cell corner, the oversized-AABB bin and its mask.
    entries: Vec<([i32; 3], u32)>,
    lower: Vec<[i32; 3]>,
    global: Vec<u32>,
    global_mask: Vec<bool>,
}

impl UniformGrid {
    /// Creates a grid with the given cell size.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not positive and finite.
    pub fn new(cell: f32) -> Self {
        assert!(cell > 0.0 && cell.is_finite(), "cell size must be positive");
        UniformGrid {
            cell,
            entries: Vec::new(),
            lower: Vec::new(),
            global: Vec::new(),
            global_mask: Vec::new(),
        }
    }

    fn cell_range(&self, bb: &Aabb) -> ([i32; 3], [i32; 3]) {
        let lo = [
            (bb.min.x / self.cell).floor() as i32,
            (bb.min.y / self.cell).floor() as i32,
            (bb.min.z / self.cell).floor() as i32,
        ];
        let hi = [
            (bb.max.x / self.cell).floor() as i32,
            (bb.max.y / self.cell).floor() as i32,
            (bb.max.z / self.cell).floor() as i32,
        ];
        (lo, hi)
    }
}

impl Broadphase for UniformGrid {
    fn pairs_into(
        &mut self,
        aabbs: &[(GeomId, Aabb)],
        out: &mut Vec<(GeomId, GeomId)>,
    ) -> BroadphaseStats {
        let mut stats = BroadphaseStats {
            geoms: aabbs.len(),
            ..Default::default()
        };
        // Very large AABBs (planes) would flood the grid; put anything
        // spanning more than `MAX_CELLS_PER_AXIS` cells into a global bin
        // tested against everyone.
        const MAX_CELLS_PER_AXIS: i32 = 64;
        self.entries.clear();
        self.lower.clear();
        self.global.clear();
        self.global_mask.clear();
        self.global_mask.resize(aabbs.len(), false);
        out.clear();
        for (i, (_, bb)) in aabbs.iter().enumerate() {
            let (lo, hi) = self.cell_range(bb);
            self.lower.push(lo);
            if (0..3).any(|k| hi[k] - lo[k] > MAX_CELLS_PER_AXIS) {
                self.global.push(i as u32);
                self.global_mask[i] = true;
                continue;
            }
            for x in lo[0]..=hi[0] {
                for y in lo[1]..=hi[1] {
                    for z in lo[2]..=hi[2] {
                        self.entries.push(([x, y, z], i as u32));
                    }
                }
            }
        }
        stats.sort_ops = self.entries.len();
        self.entries.sort_unstable();
        let mut test = |ia: u32, ib: u32| {
            let (ga, ba) = &aabbs[ia as usize];
            let (gb, bb) = &aabbs[ib as usize];
            stats.overlap_tests += 1;
            if ba.overlaps(bb) {
                out.push(if ga < gb { (*ga, *gb) } else { (*gb, *ga) });
            }
        };
        for run in self.entries.chunk_by(|a, b| a.0 == b.0) {
            let key = run[0].0;
            for (k, &(_, a)) in run.iter().enumerate() {
                let la = self.lower[a as usize];
                for &(_, b) in &run[k + 1..] {
                    let lb = self.lower[b as usize];
                    // Test the pair only in its owner cell.
                    if (0..3).all(|d| la[d].max(lb[d]) == key[d]) {
                        test(a, b);
                    }
                }
            }
        }
        // Membership mask instead of a `global.contains` scan: the inner
        // loop stays O(n) per global geom rather than O(n·g).
        for (i, &a) in self.global.iter().enumerate() {
            for &b in &self.global[i + 1..] {
                test(a, b);
            }
            for j in 0..aabbs.len() as u32 {
                if !self.global_mask[j as usize] {
                    test(a, j);
                }
            }
        }
        // Sort so the pair order (and everything downstream: solver row
        // order, island numbering, dynamics) depends only on the pair set.
        out.sort_unstable();
        stats.pairs = out.len();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_math::Vec3;

    fn boxes(centers: &[Vec3], half: f32) -> Vec<(GeomId, Aabb)> {
        centers
            .iter()
            .enumerate()
            .map(|(i, c)| {
                (
                    GeomId(i as u32),
                    Aabb::from_center_half_extents(*c, Vec3::splat(half)),
                )
            })
            .collect()
    }

    fn sorted(mut v: Vec<(GeomId, GeomId)>) -> Vec<(GeomId, GeomId)> {
        v.sort();
        v
    }

    #[test]
    fn sap_finds_overlapping_pair() {
        let aabbs = boxes(
            &[
                Vec3::ZERO,
                Vec3::new(0.5, 0.0, 0.0),
                Vec3::new(10.0, 0.0, 0.0),
            ],
            0.5,
        );
        let (pairs, stats) = SweepAndPrune::new().pairs(&aabbs);
        assert_eq!(pairs, vec![(GeomId(0), GeomId(1))]);
        assert_eq!(stats.pairs, 1);
        assert_eq!(stats.geoms, 3);
    }

    #[test]
    fn sap_no_pairs_when_separated() {
        let aabbs = boxes(
            &[
                Vec3::ZERO,
                Vec3::new(5.0, 0.0, 0.0),
                Vec3::new(-5.0, 0.0, 0.0),
            ],
            0.5,
        );
        let (pairs, _) = SweepAndPrune::new().pairs(&aabbs);
        assert!(pairs.is_empty());
    }

    #[test]
    fn sap_separated_on_other_axes_culled() {
        // Same x interval but far apart in y: the sweep must still reject.
        let aabbs = boxes(&[Vec3::ZERO, Vec3::new(0.0, 100.0, 0.0)], 0.5);
        let (pairs, stats) = SweepAndPrune::new().pairs(&aabbs);
        assert!(pairs.is_empty());
        assert_eq!(stats.overlap_tests, 1);
    }

    #[test]
    fn grid_matches_sap_on_clusters() {
        let centers: Vec<Vec3> = (0..20)
            .map(|i| Vec3::new((i % 5) as f32 * 0.8, (i / 5) as f32 * 0.8, 0.0))
            .collect();
        let aabbs = boxes(&centers, 0.5);
        let (mut sap, _) = SweepAndPrune::new().pairs(&aabbs);
        let (mut grid, _) = UniformGrid::new(2.0).pairs(&aabbs);
        sap.sort();
        grid.sort();
        assert_eq!(sap, grid);
    }

    #[test]
    fn grid_handles_huge_aabb_as_global() {
        let mut aabbs = boxes(&[Vec3::ZERO, Vec3::new(1000.0, 0.0, 0.0)], 0.5);
        // A plane-like huge box overlapping everything.
        aabbs.push((
            GeomId(2),
            Aabb::from_center_half_extents(Vec3::ZERO, Vec3::splat(1e9)),
        ));
        let (pairs, _) = UniformGrid::new(1.0).pairs(&aabbs);
        let pairs = sorted(pairs);
        assert!(pairs.contains(&(GeomId(0), GeomId(2))));
        assert!(pairs.contains(&(GeomId(1), GeomId(2))));
        assert!(!pairs.contains(&(GeomId(0), GeomId(1))));
    }

    #[test]
    fn sap_resort_of_coherent_frame_is_cheap() {
        // First frame: a scrambled permutation forces real sorting work
        // (167 is odd, so i·167 mod 256 visits every slot).
        let n = 256;
        let centers: Vec<Vec3> = (0..n)
            .map(|i| Vec3::new((i * 167 % n) as f32 * 2.0, 0.0, 0.0))
            .collect();
        let aabbs = boxes(&centers, 0.5);
        let mut sap = SweepAndPrune::new();
        let mut out = Vec::new();
        let first = sap.pairs_into(&aabbs, &mut out);
        // Second frame, same positions: the kept permutation is already
        // sorted, so the pattern-defeating sort needs only a linear scan.
        let second = sap.pairs_into(&aabbs, &mut out);
        assert!(
            second.sort_ops < first.sort_ops / 2,
            "coherent resort should be far cheaper: first {} second {}",
            first.sort_ops,
            second.sort_ops
        );
        assert!(
            second.sort_ops >= n - 1,
            "a verification scan is still paid"
        );
    }

    #[test]
    fn sap_sort_ops_are_measured_not_estimated() {
        // Two geoms need exactly one comparison (plus none for the
        // single-element case), not an n·log₂n estimate.
        let aabbs = boxes(&[Vec3::ZERO, Vec3::new(5.0, 0.0, 0.0)], 0.5);
        let (_, stats) = SweepAndPrune::new().pairs(&aabbs);
        assert_eq!(stats.sort_ops, 1);
        let aabbs = boxes(&[Vec3::ZERO], 0.5);
        let (_, stats) = SweepAndPrune::new().pairs(&aabbs);
        assert_eq!(stats.sort_ops, 0);
    }

    #[test]
    fn grid_global_bin_work_is_linear_in_population() {
        // g global geoms against n total must do g·(g-1)/2 + g·(n-g)
        // overlap tests — each pair tested exactly once, no rescans.
        let g = 3usize;
        let small = 12usize;
        let mut aabbs = boxes(
            &(0..small)
                .map(|i| Vec3::new(i as f32 * 10.0, 0.0, 0.0))
                .collect::<Vec<_>>(),
            0.5,
        );
        for k in 0..g {
            aabbs.push((
                GeomId((small + k) as u32),
                Aabb::from_center_half_extents(Vec3::ZERO, Vec3::splat(1e8 + k as f32)),
            ));
        }
        let (pairs, stats) = UniformGrid::new(1.0).pairs(&aabbs);
        let expected_global_tests = g * (g - 1) / 2 + g * small;
        // Small geoms are 10 apart with cell 1.0 — no cell-local tests.
        assert_eq!(stats.overlap_tests, expected_global_tests);
        // Every global overlaps everything.
        assert_eq!(pairs.len(), expected_global_tests);
    }

    #[test]
    fn grid_tests_a_multi_cell_pair_once_in_its_owner_cell() {
        // Two boxes sharing a 3×3×3 block of unit cells, on both sides of
        // the origin (floor() makes the negative octant the tricky one).
        for sign in [1.0f32, -1.0] {
            let aabbs = [(0.5, 3.5), (1.2, 3.8)]
                .iter()
                .enumerate()
                .map(|(i, &(lo, hi))| {
                    let (a, b) = (Vec3::splat(sign * lo), Vec3::splat(sign * hi));
                    (GeomId(i as u32), Aabb::new(a.min(b), a.max(b)))
                })
                .collect::<Vec<_>>();
            let (pairs, stats) = UniformGrid::new(1.0).pairs(&aabbs);
            assert_eq!(pairs, vec![(GeomId(0), GeomId(1))], "sign {sign}");
            assert_eq!(stats.overlap_tests, 1, "sign {sign}");
            // 4³ cells for the first box, 3³ for the second.
            assert_eq!(stats.sort_ops, 64 + 27, "sign {sign}");
        }
    }

    #[test]
    fn grid_steady_state_does_not_grow_scratch() {
        let mut aabbs = boxes(
            &(0..64)
                .map(|i| Vec3::new((i % 8) as f32 * 0.7, (i / 8) as f32 * 0.7, 0.0))
                .collect::<Vec<_>>(),
            0.6,
        );
        aabbs.push((
            GeomId(64),
            Aabb::from_center_half_extents(Vec3::ZERO, Vec3::new(1e6, 0.1, 1e6)),
        ));
        let mut grid = UniformGrid::new(1.0);
        let mut out = Vec::new();
        let capacities = |g: &UniformGrid, out: &Vec<(GeomId, GeomId)>| {
            [
                g.entries.capacity(),
                g.lower.capacity(),
                g.global.capacity(),
                g.global_mask.capacity(),
                out.capacity(),
            ]
        };
        let first = grid.pairs_into(&aabbs, &mut out);
        let before = capacities(&grid, &out);
        let second = grid.pairs_into(&aabbs, &mut out);
        assert_eq!(capacities(&grid, &out), before);
        assert_eq!(first.overlap_tests, second.overlap_tests);
        assert_eq!(first.pairs, second.pairs);
    }

    #[test]
    fn empty_input_is_fine() {
        let (pairs, stats) = SweepAndPrune::new().pairs(&[]);
        assert!(pairs.is_empty());
        assert_eq!(stats.geoms, 0);
        let (pairs, _) = UniformGrid::new(1.0).pairs(&[]);
        assert!(pairs.is_empty());
    }
}
