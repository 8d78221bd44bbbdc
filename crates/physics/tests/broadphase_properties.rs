//! Property-based equivalence of the broad-phase algorithms.
//!
//! [`BruteForce`] tests every pair and is trivially correct; sweep-and-prune
//! and the uniform grid must emit exactly the same pair set on arbitrary
//! AABB clouds — including negative coordinates, exactly touching boxes and
//! plane-sized AABBs that land in the grid's global bin. The grid is held
//! to more: its raw output must already be sorted, and its `overlap_tests`
//! and `sort_ops` must match an independent recount of its cell work.

use parallax_math::{Aabb, Vec3};
use parallax_physics::broadphase::{Broadphase, BruteForce, SweepAndPrune, UniformGrid};
use parallax_physics::shape::GeomId;
use proptest::prelude::*;

fn aabb_cloud(max_len: usize) -> impl Strategy<Value = Vec<(f32, f32, f32, f32, f32, f32)>> {
    // (center xyz in ±20, half-extents in (0, 3]) per box.
    prop::collection::vec(
        (
            -20.0f32..20.0,
            -20.0f32..20.0,
            -20.0f32..20.0,
            0.01f32..3.0,
            0.01f32..3.0,
            0.01f32..3.0,
        ),
        0..max_len,
    )
}

fn build(cloud: &[(f32, f32, f32, f32, f32, f32)]) -> Vec<(GeomId, Aabb)> {
    cloud
        .iter()
        .enumerate()
        .map(|(i, &(x, y, z, hx, hy, hz))| {
            (
                GeomId(i as u32),
                Aabb::from_center_half_extents(Vec3::new(x, y, z), Vec3::new(hx, hy, hz)),
            )
        })
        .collect()
}

fn sorted_pairs(bp: &mut dyn Broadphase, aabbs: &[(GeomId, Aabb)]) -> Vec<(GeomId, GeomId)> {
    let (mut pairs, _) = bp.pairs(aabbs);
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// The grid's cell-index range of `bb`, or `None` when it spans more than
/// the grid's 64-cell cap on some axis and goes to the global bin.
fn cell_range(bb: &Aabb, cell: f32) -> Option<[(i32, i32); 3]> {
    let r = |lo: f32, hi: f32| ((lo / cell).floor() as i32, (hi / cell).floor() as i32);
    let range = [
        r(bb.min.x, bb.max.x),
        r(bb.min.y, bb.max.y),
        r(bb.min.z, bb.max.z),
    ];
    range.iter().all(|&(lo, hi)| hi - lo <= 64).then_some(range)
}

/// Checks the grid's raw output (no sort, no dedup) against the oracle,
/// and its work counts against an independent recount: one overlap test
/// per pair of binned geoms sharing a cell, one per pair involving a
/// global-bin geom, and one sort op per (cell, geom) entry.
fn assert_grid_exact(cell: f32, aabbs: &[(GeomId, Aabb)], oracle: &[(GeomId, GeomId)]) {
    let (pairs, stats) = UniformGrid::new(cell).pairs(aabbs);
    assert!(
        pairs.windows(2).all(|w| w[0] < w[1]),
        "grid (cell {cell}) output is not strictly ascending"
    );
    assert_eq!(
        pairs, oracle,
        "grid (cell {cell}) diverged from brute force"
    );
    let ranges: Vec<_> = aabbs.iter().map(|(_, bb)| cell_range(bb, cell)).collect();
    let binned: Vec<_> = ranges.iter().flatten().collect();
    let (n, g) = (ranges.len(), ranges.len() - binned.len());
    let sharing = binned
        .iter()
        .enumerate()
        .flat_map(|(i, a)| binned[i + 1..].iter().map(move |b| (a, b)))
        .filter(|(a, b)| (0..3).all(|k| a[k].0.max(b[k].0) <= a[k].1.min(b[k].1)))
        .count();
    assert_eq!(
        stats.overlap_tests,
        sharing + g * g.saturating_sub(1) / 2 + g * (n - g),
        "grid (cell {cell}) overlap tests"
    );
    let volume = |r: &[(i32, i32); 3]| {
        r.iter()
            .map(|&(lo, hi)| (hi - lo + 1) as usize)
            .product::<usize>()
    };
    assert_eq!(
        stats.sort_ops,
        binned.iter().map(|r| volume(r)).sum::<usize>(),
        "grid (cell {cell}) sort ops"
    );
    assert_eq!(stats.pairs, oracle.len());
}

fn assert_all_agree(aabbs: &[(GeomId, Aabb)]) {
    let oracle = sorted_pairs(&mut BruteForce::new(), aabbs);
    let sap = sorted_pairs(&mut SweepAndPrune::new(), aabbs);
    assert_eq!(sap, oracle, "sweep-and-prune diverged from brute force");
    for cell in [0.5, 1.2, 4.0] {
        assert_grid_exact(cell, aabbs, &oracle);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn algorithms_agree_on_random_clouds(cloud in aabb_cloud(40)) {
        assert_all_agree(&build(&cloud));
    }

    #[test]
    fn algorithms_agree_with_plane_sized_aabbs(
        cloud in aabb_cloud(24),
        planes in 1usize..3,
    ) {
        let mut aabbs = build(&cloud);
        // Plane-like AABBs: vast in two axes, thin in the third — these
        // overflow the grid's per-axis cell cap and take the global-bin
        // path.
        for p in 0..planes {
            aabbs.push((
                GeomId((cloud.len() + p) as u32),
                Aabb::from_center_half_extents(
                    Vec3::new(0.0, p as f32 * 2.0, 0.0),
                    Vec3::new(1e7, 0.1, 1e7),
                ),
            ));
        }
        assert_all_agree(&aabbs);
    }

    #[test]
    fn algorithms_agree_on_repeated_coherent_frames(cloud in aabb_cloud(24), dx in -0.5f32..0.5) {
        // Persistent state (SAP's kept permutation, the grid's scratch)
        // must not change results across frames of slowly moving boxes.
        let mut sap = SweepAndPrune::new();
        let mut grid = UniformGrid::new(1.2);
        let mut out = Vec::new();
        for frame in 0..3 {
            let shifted: Vec<_> = cloud
                .iter()
                .map(|&(x, y, z, hx, hy, hz)| (x + dx * frame as f32, y, z, hx, hy, hz))
                .collect();
            let aabbs = build(&shifted);
            let oracle = sorted_pairs(&mut BruteForce::new(), &aabbs);
            sap.pairs_into(&aabbs, &mut out);
            out.sort_unstable();
            prop_assert_eq!(&out, &oracle, "SAP frame {}", frame);
            // The grid's output is already sorted.
            grid.pairs_into(&aabbs, &mut out);
            prop_assert_eq!(&out, &oracle, "grid frame {}", frame);
        }
    }
}

#[test]
fn touching_boxes_count_as_overlapping_everywhere() {
    // Boxes sharing exactly one face: whatever the convention, all three
    // algorithms must apply the same one.
    let aabbs = vec![
        (
            GeomId(0),
            Aabb::from_center_half_extents(Vec3::ZERO, Vec3::splat(0.5)),
        ),
        (
            GeomId(1),
            Aabb::from_center_half_extents(Vec3::new(1.0, 0.0, 0.0), Vec3::splat(0.5)),
        ),
        (
            GeomId(2),
            Aabb::from_center_half_extents(Vec3::new(-3.0, 0.0, 0.0), Vec3::splat(0.5)),
        ),
    ];
    assert_all_agree(&aabbs);
}

#[test]
fn negative_coordinate_octant_is_not_special() {
    // Cell indices are floor()-ed; clusters straddling the origin and deep
    // in the negative octant must behave identically.
    let centers = [
        Vec3::new(-10.3, -7.7, -3.1),
        Vec3::new(-10.9, -7.2, -3.4),
        Vec3::new(-0.4, -0.4, -0.4),
        Vec3::new(0.4, 0.4, 0.4),
        Vec3::new(-100.0, -100.0, -100.0),
    ];
    let aabbs: Vec<_> = centers
        .iter()
        .enumerate()
        .map(|(i, c)| {
            (
                GeomId(i as u32),
                Aabb::from_center_half_extents(*c, Vec3::splat(0.6)),
            )
        })
        .collect();
    assert_all_agree(&aabbs);
}
