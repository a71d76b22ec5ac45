//! The latency-bound calls between the nodes: the barrier's k-ary
//! dissemination rounds, the small allreduce's and the allgather's
//! recursive k-ing, and the gather's node blocks in the root's landings. The radices are derived from `SrmModel` and never
//! lose to the paper's pairwise exchange or, for the allgather, to the
//! gather and broadcast it replaced; no rank leaves a barrier before the
//! last one has entered, and the exchange landings, reused two
//! exchanging calls later without a credit, give every rank the same
//! bits.

use collops::{from_bytes_u64, to_bytes_u64, Collectives, DType, NonblockingCollectives, ReduceOp};
use shmem::ShmBuffer;
use simnet::{MachineConfig, Sim, SimTime, Topology};
use srm::{SrmComm, SrmModel, SrmTuning, SrmWorld, TreeKind};
use srm_cluster::{measure, HarnessOpts, Impl, Op};
use std::sync::{Arc, Mutex};

fn tuning(tree: Option<TreeKind>) -> SrmTuning {
    SrmTuning {
        tree,
        ..SrmTuning::default()
    }
}

/// The radix the closed form picks is the best one of the barrier sweep
/// on 16-way nodes (CHANGES.md; at 256 nodes radix 7 and 8 both read
/// 73.3 µs), and a forced tree does not change it: the barrier has no
/// tree.
#[test]
fn the_model_picks_the_swept_radix_whatever_the_tree() {
    let radix = |nodes, tree| {
        let topo = Topology::sp_16way(nodes);
        SrmModel::new(MachineConfig::ibm_sp_colony(), topo, tuning(tree)).barrier_radix()
    };
    for (nodes, k) in [(2, 2), (3, 3), (4, 4), (8, 8), (16, 4), (64, 8), (256, 7)] {
        assert_eq!(radix(nodes, None), k, "{nodes} nodes");
        for kind in TreeKind::ALL {
            assert_eq!(radix(nodes, Some(kind)), k, "{nodes} nodes, {kind:?}");
        }
    }
}

/// The derived barrier is no slower than the paper's radix-2 exchange,
/// which every barrier ran before the radix was derived (`explore --op
/// barrier --iters 2` then). With one task per node that exchange cost
/// 0.6 µs plus 14.9 per round, checked on every node count from 2 to
/// 256; on 16-way nodes these are its times from one round on 2 nodes
/// to eight on 256.
#[test]
fn derived_barrier_is_no_slower_than_radix_two() {
    let check = |topo: Topology, radix2_us: f64| {
        let opts = HarnessOpts {
            iters: 2,
            srm: tuning(None),
        };
        let machine = MachineConfig::ibm_sp_colony();
        let derived = measure(Impl::Srm, machine, topo, Op::Barrier, 8, opts).per_call;
        // The radix-2 times are read to 0.1 µs.
        assert!(
            (derived.as_us() * 10.0).round() <= (radix2_us * 10.0).round(),
            "{topo}: derived {derived} vs radix 2 {radix2_us} us"
        );
    };
    for nodes in 2..=256usize {
        let rounds = nodes.next_power_of_two().trailing_zeros();
        check(Topology::new(nodes, 1), 0.6 + 14.9 * rounds as f64);
    }
    let radix2 = [
        (2, 19.1),
        (3, 34.0),
        (4, 34.0),
        (5, 48.9),
        (8, 48.9),
        (16, 68.6),
        (17, 83.5),
        (64, 98.4),
        (256, 128.2),
    ];
    for (nodes, radix2_us) in radix2 {
        check(Topology::sp_16way(nodes), radix2_us);
    }
}

/// The small allreduce's radix on 16-way nodes, 2 to 16 of them: at 8 B
/// one round of `n − 1` peers up to 15 nodes and two radix-4 rounds on
/// 16; at 4 KB the wires and folds a round serializes keep recursive
/// doubling except on 3 and 9 nodes, a power of 3 each; at 16 KB
/// recursive doubling throughout. A forced tree does not change it.
#[test]
fn the_model_picks_the_allreduce_radix_per_size_whatever_the_tree() {
    let radix = |nodes, len, tree| {
        let topo = Topology::sp_16way(nodes);
        let model = SrmModel::new(MachineConfig::ibm_sp_colony(), topo, tuning(tree));
        model.allreduce_radix(len)
    };
    let pins: [(usize, [usize; 15]); 3] = [
        (8, [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 4]),
        (4 << 10, [2, 3, 2, 2, 2, 2, 2, 3, 2, 2, 2, 2, 2, 2, 2]),
        (16 << 10, [2; 15]),
    ];
    for (len, ks) in pins {
        for (nodes, k) in (2..=16).zip(ks) {
            assert_eq!(radix(nodes, len, None), k, "{nodes} nodes, {len} B");
            for kind in TreeKind::ALL {
                assert_eq!(
                    radix(nodes, len, Some(kind)),
                    k,
                    "{nodes} nodes, {len} B, {kind:?}"
                );
            }
        }
    }
}

// Recursive doubling's allreduce times (`harness::measure`, two calls a
// measurement) before the radix was derived, in µs rounded up: on 16-way
// nodes from 2 to 16 and on single-task nodes from 2 to 64. The 16 KB
// rows are measured with the masters polling (no interrupt cut), the
// rule the derived call runs under.
const WIDE_8: [f64; 15] = [
    23.09, 39.03, 38.03, 52.76, 55.23, 74.06, 52.97, 73.95, 74.55, 75.92, 75.92, 87.95, 86.40,
    87.90, 73.91,
];
const WIDE_4K: [f64; 15] = [
    102.80, 143.45, 137.59, 170.37, 187.93, 202.46, 172.39, 211.02, 206.07, 219.78, 220.23, 241.68,
    236.11, 236.66, 207.18,
];
const WIDE_16K: [f64; 15] = [
    326.58, 453.87, 421.06, 511.27, 576.70, 596.20, 515.54, 599.16, 604.85, 648.54, 648.37, 713.65,
    690.43, 690.98, 610.02,
];
const ONE_8: [f64; 63] = [
    15.84, 31.79, 30.78, 45.97, 47.98, 60.81, 45.72, 60.91, 60.91, 62.67, 62.92, 76.09, 75.40,
    76.09, 60.66, 71.21, 74.95, 76.25, 74.95, 78.15, 78.42, 77.86, 77.36, 91.04, 90.59, 91.38,
    90.94, 91.18, 91.04, 91.03, 75.60, 87.04, 87.04, 91.04, 87.04, 91.29, 91.24, 91.29, 89.89,
    93.10, 92.99, 92.80, 93.56, 92.35, 92.75, 92.40, 93.05, 105.97, 105.52, 106.57, 105.52, 106.32,
    105.27, 106.22, 105.72, 106.02, 105.52, 105.92, 105.72, 105.97, 105.97, 105.82, 90.54,
];
const ONE_4K: [f64; 63] = [
    35.70, 76.34, 70.49, 103.27, 120.83, 137.40, 105.29, 137.40, 138.87, 154.07, 155.62, 177.36,
    183.65, 177.80, 140.08, 178.50, 179.33, 178.96, 173.66, 195.81, 190.76, 190.56, 190.61, 213.06,
    213.66, 218.89, 218.44, 212.74, 206.49, 207.44, 174.88, 213.29, 213.88, 213.51, 213.41, 213.51,
    224.00, 214.23, 213.96, 224.36, 230.51, 231.81, 225.36, 224.96, 225.21, 225.56, 225.56, 248.57,
    247.30, 248.30, 247.81, 253.59, 253.14, 248.45, 253.04, 247.69, 247.61, 248.24, 247.08, 242.34,
    246.93, 242.08, 209.67,
];
const ONE_16K: [f64; 63] = [
    95.38, 224.90, 189.86, 283.01, 348.44, 367.94, 284.34, 370.90, 376.58, 441.36, 442.91, 489.03,
    508.97, 485.57, 378.81, 489.23, 468.08, 541.62, 471.96, 554.70, 537.74, 537.54, 537.59, 585.51,
    608.03, 604.15, 603.45, 580.16, 580.04, 557.34, 473.29, 583.71, 562.55, 562.55, 584.51, 589.54,
    584.96, 584.86, 565.99, 630.52, 649.18, 632.67, 632.12, 648.93, 631.87, 632.22, 632.22, 694.78,
    679.54, 679.44, 702.51, 702.51, 701.81, 698.48, 697.93, 678.86, 674.34, 674.47, 674.22, 674.79,
    671.47, 651.82, 567.77,
];

/// The derived small allreduce is no slower than recursive doubling,
/// which every small allreduce ran before the radix was derived, at 8 B,
/// 4 KB and 16 KB (one reduce chunk) on 16-way nodes (2–16) and on
/// single-task nodes (2–64).
#[test]
fn derived_allreduce_is_no_slower_than_recursive_doubling() {
    let grids: [(usize, usize, &[f64]); 6] = [
        (16, 8, &WIDE_8),
        (16, 4 << 10, &WIDE_4K),
        (16, 16 << 10, &WIDE_16K),
        (1, 8, &ONE_8),
        (1, 4 << 10, &ONE_4K),
        (1, 16 << 10, &ONE_16K),
    ];
    for (tpn, len, radix2) in grids {
        for (nodes, &radix2_us) in (2..).zip(radix2) {
            let topo = Topology::new(nodes, tpn);
            let opts = HarnessOpts {
                iters: 2,
                srm: tuning(None),
            };
            let machine = MachineConfig::ibm_sp_colony();
            let derived = measure(Impl::Srm, machine, topo, Op::Allreduce, len, opts).per_call;
            assert!(
                derived.as_us() <= radix2_us,
                "{topo}, {len} B: derived {derived} vs recursive doubling {radix2_us} us"
            );
        }
    }
}

/// The allgather's radix on 16-way nodes, 2 to 16 of them: one round of
/// `n − 1` peers, except two radix-4 rounds on 16 nodes at 8 B. A forced
/// tree does not change it.
#[test]
fn the_model_picks_the_allgather_radix_per_size_whatever_the_tree() {
    let radix = |nodes, len, tree| {
        let topo = Topology::sp_16way(nodes);
        let model = SrmModel::new(MachineConfig::ibm_sp_colony(), topo, tuning(tree));
        model.allgather_radix(len)
    };
    for len in [8, 512, 4 << 10] {
        for nodes in 2..=16 {
            let k = if (nodes, len) == (16, 8) { 4 } else { nodes };
            assert_eq!(radix(nodes, len, None), k, "{nodes} nodes, {len} B");
            for kind in TreeKind::ALL {
                let forced = radix(nodes, len, Some(kind));
                assert_eq!(forced, k, "{nodes} nodes, {len} B, {kind:?}");
            }
        }
    }
}

// The allgather's times as a gather to rank 0 and a broadcast of the
// assembled buffer (`harness::measure`, two calls a measurement), in µs
// rounded up: on 16-way nodes from 2 to 16 and on single-task nodes
// from 2 to 64.
const GB_WIDE_8: [f64; 15] = [
    79.38, 101.03, 131.42, 154.43, 178.24, 202.04, 232.10, 258.22, 282.02, 305.83, 329.63, 364.54,
    389.82, 410.21, 440.96,
];
const GB_WIDE_512: [f64; 15] = [
    200.11, 306.89, 397.44, 693.57, 828.77, 965.03, 1175.16, 963.17, 1033.80, 1167.31, 1278.86,
    1347.16, 1430.01, 1578.03, 1683.01,
];
const GB_WIDE_4K: [f64; 15] = [
    730.53, 1158.61, 1586.89, 2015.17, 2443.45, 2871.74, 3300.02, 3728.30, 4156.58, 4584.86,
    5013.14, 5441.43, 5875.11, 6296.99, 6725.27,
];
const GB_ONE_8: [f64; 63] = [
    42.04, 44.34, 57.22, 59.48, 60.25, 61.72, 73.87, 76.16, 76.95, 77.74, 78.53, 79.72, 82.91,
    79.30, 92.40, 100.76, 95.33, 95.99, 96.53, 100.71, 101.98, 103.25, 112.97, 122.23, 129.63,
    125.96, 131.75, 131.74, 133.68, 136.82, 145.21, 146.05, 143.39, 144.13, 149.00, 150.77, 149.10,
    153.19, 154.60, 157.82, 159.76, 161.43, 163.19, 171.75, 188.25, 190.20, 192.15, 194.85, 198.23,
    200.62, 199.41, 200.66, 203.29, 199.66, 203.36, 207.11, 209.51, 211.91, 211.77, 214.92, 215.91,
    213.37, 220.15,
];
const GB_ONE_512: [f64; 63] = [
    48.34, 56.29, 75.61, 87.95, 94.43, 101.65, 124.91, 146.02, 155.43, 164.84, 174.98, 184.39,
    196.33, 208.85, 234.34, 212.33, 219.23, 230.02, 219.91, 243.51, 262.38, 282.43, 276.06, 297.39,
    312.59, 325.74, 308.39, 308.08, 319.09, 327.96, 336.58, 365.38, 360.95, 386.02, 367.08, 388.58,
    409.95, 424.17, 410.35, 423.65, 422.38, 429.98, 434.64, 438.49, 450.82, 479.78, 472.03, 489.68,
    500.03, 510.03, 495.02, 507.96, 523.59, 528.52, 527.28, 552.00, 539.78, 543.55, 553.08, 559.32,
    574.26, 577.20, 573.88,
];
const GB_ONE_4K: [f64; 63] = [
    98.17, 145.31, 194.16, 276.12, 329.92, 389.43, 433.38, 738.27, 813.55, 888.83, 969.97, 1045.25,
    1128.18, 1273.13, 1369.61, 1059.00, 1098.96, 1178.47, 1215.08, 1263.34, 1298.04, 1402.01,
    1440.72, 1494.78, 1541.09, 1599.15, 1626.71, 1677.32, 1722.78, 1821.15, 1875.06, 1940.12,
    1980.38, 2026.74, 2074.00, 2127.10, 2150.51, 2210.67, 2257.63, 2315.59, 2365.00, 2415.26,
    2459.17, 2506.43, 2541.88, 2638.20, 2687.41, 2746.02, 2797.28, 2835.19, 2881.45, 2928.51,
    2968.72, 3015.13, 3068.89, 3134.00, 3183.16, 3230.52, 3279.18, 3325.69, 3351.69, 3442.91,
    3491.77,
];

/// The allgather between the nodes is no slower than the gather to rank
/// 0 and the broadcast of the assembled buffer it replaced, at 8 B, 512
/// B and 4 KB segments on 16-way nodes (2–16) and on single-task nodes
/// (2–64). The closest point is 2×16 at 4 KB (711.6 against 730.5 µs);
/// the median one takes 0.36 of the old time.
#[test]
fn derived_allgather_is_no_slower_than_gather_plus_bcast() {
    let grids: [(usize, usize, &[f64]); 6] = [
        (16, 8, &GB_WIDE_8),
        (16, 512, &GB_WIDE_512),
        (16, 4 << 10, &GB_WIDE_4K),
        (1, 8, &GB_ONE_8),
        (1, 512, &GB_ONE_512),
        (1, 4 << 10, &GB_ONE_4K),
    ];
    let mut slower = Vec::new();
    for (tpn, len, composed) in grids {
        for (nodes, &composed_us) in (2..).zip(composed) {
            let topo = Topology::new(nodes, tpn);
            let opts = HarnessOpts {
                iters: 2,
                srm: tuning(None),
            };
            let machine = MachineConfig::ibm_sp_colony();
            let derived = measure(Impl::Srm, machine, topo, Op::Allgather, len, opts).per_call;
            if derived.as_us() > composed_us {
                slower.push(format!("{topo}, {len} B: {derived} vs {composed_us} us"));
            }
        }
    }
    assert!(
        slower.is_empty(),
        "slower than gather + broadcast: {slower:#?}"
    );
}

// The gather's and the allgather's times before the gather could take
// the node blocks in the root's landings and the allgather could publish
// landed blocks in place (`harness::measure`, two calls a measurement),
// in µs rounded up: on 16-way nodes from 2 to 16 and on single-task nodes
// from 2 to 64. The gather went straight into the root's user buffer
// after an address exchange; the allgather broadcast the assembled
// buffer within each node after the exchange.
const DIRECT_WIDE_8: [f64; 15] = [
    46.01, 64.74, 87.99, 111.24, 134.49, 157.74, 180.99, 204.24, 227.39, 249.79, 272.19, 318.59,
    340.54, 363.39, 375.79,
];
const DIRECT_WIDE_512: [f64; 15] = [
    48.08, 79.15, 102.90, 126.66, 159.93, 183.18, 206.43, 229.68, 252.83, 275.23, 297.63, 320.03,
    341.98, 364.83, 377.23,
];
const DIRECT_WIDE_4K: [f64; 15] = [
    209.12, 395.09, 582.47, 769.86, 957.25, 1144.63, 1332.02, 1519.41, 1706.79, 1894.18, 2081.56,
    2268.95, 2460.79, 2648.47, 2825.01,
];
const DIRECT_ONE_8: [f64; 63] = [
    30.13, 31.53, 27.93, 30.18, 32.43, 34.68, 36.93, 39.18, 41.33, 42.73, 44.13, 45.53, 46.48,
    48.33, 39.73, 50.23, 52.08, 53.93, 46.18, 55.38, 57.23, 59.08, 60.93, 78.03, 86.38, 88.23,
    90.08, 91.93, 85.18, 92.93, 94.78, 96.63, 98.48, 100.33, 93.73, 101.33, 103.18, 105.03, 106.88,
    108.73, 102.98, 109.28, 111.13, 112.98, 138.83, 140.68, 142.53, 136.93, 143.08, 144.93, 146.78,
    148.63, 150.48, 152.33, 147.58, 152.43, 154.28, 156.13, 157.98, 159.83, 161.68, 163.53, 158.93,
];
const DIRECT_ONE_512: [f64; 63] = [
    24.97, 27.18, 29.49, 31.81, 34.12, 36.43, 38.74, 41.06, 43.27, 44.73, 46.20, 47.66, 48.67,
    50.58, 42.05, 52.61, 54.52, 56.44, 48.75, 58.01, 59.92, 61.84, 63.75, 56.21, 87.82, 89.67,
    91.52, 93.37, 86.62, 94.37, 96.22, 98.07, 99.92, 101.77, 95.17, 102.77, 104.62, 106.47, 108.32,
    110.17, 104.42, 110.72, 112.57, 114.42, 116.27, 142.12, 143.97, 138.37, 144.52, 146.37, 148.22,
    150.07, 151.92, 153.77, 148.32, 153.87, 155.72, 157.57, 159.42, 161.27, 163.12, 164.97, 159.67,
];
const DIRECT_ONE_4K: [f64; 63] = [
    35.21, 46.96, 58.81, 70.66, 82.52, 94.37, 106.22, 118.07, 129.93, 141.78, 153.63, 165.48,
    181.78, 193.94, 194.94, 216.44, 228.59, 240.75, 241.90, 262.80, 274.95, 287.10, 299.26, 300.56,
    321.31, 333.46, 345.62, 357.77, 358.52, 379.37, 391.53, 403.68, 415.83, 427.98, 428.88, 449.59,
    461.74, 473.89, 486.04, 498.20, 499.25, 519.35, 531.50, 543.65, 555.81, 567.96, 580.11, 581.31,
    601.27, 613.42, 625.57, 637.72, 649.88, 662.03, 663.38, 682.73, 694.88, 707.04, 719.19, 731.34,
    743.49, 755.65, 757.15,
];

const ONE_GROUP_WIDE_8: [f64; 15] = [
    36.31, 38.21, 40.10, 41.99, 43.88, 45.77, 47.66, 49.55, 51.44, 53.34, 55.23, 57.95, 61.04,
    64.13, 73.90,
];
const ONE_GROUP_WIDE_512: [f64; 15] = [
    149.00, 210.63, 265.47, 310.14, 354.06, 397.99, 441.91, 486.58, 530.51, 574.43, 618.36, 664.22,
    709.35, 754.47, 799.60,
];
const ONE_GROUP_WIDE_4K: [f64; 15] = [
    711.61, 1064.49, 1417.37, 1770.26, 2123.14, 2476.03, 2828.91, 3181.79, 3534.68, 3887.56,
    4240.45, 4594.53, 4948.61, 5302.70, 5656.78,
];
const ONE_GROUP_ONE_8: [f64; 63] = [
    16.34, 17.74, 19.14, 20.54, 21.94, 23.34, 24.74, 26.14, 27.54, 28.94, 30.34, 32.92, 35.52,
    38.12, 37.47, 43.32, 45.92, 48.52, 60.21, 60.22, 61.87, 62.36, 61.71, 40.31, 62.63, 51.74,
    63.54, 65.22, 65.26, 64.60, 65.47, 66.86, 66.64, 66.31, 43.14, 69.30, 68.50, 74.17, 74.04,
    74.41, 74.54, 74.56, 75.98, 75.09, 75.09, 74.76, 75.85, 45.97, 75.50, 77.24, 76.17, 74.90,
    77.26, 77.91, 76.95, 78.18, 77.17, 78.26, 77.34, 76.71, 78.54, 77.06, 48.81,
];
const ONE_GROUP_ONE_512: [f64; 63] = [
    18.45, 21.33, 22.82, 25.70, 27.18, 30.06, 31.55, 34.43, 35.91, 38.79, 40.28, 43.16, 45.58,
    48.26, 58.50, 55.02, 59.11, 61.79, 65.87, 68.55, 72.64, 75.32, 79.40, 73.77, 86.17, 95.43,
    92.93, 95.61, 99.70, 102.38, 144.41, 155.10, 159.20, 164.70, 114.95, 174.30, 178.40, 183.90,
    188.00, 193.50, 197.60, 203.10, 207.20, 212.70, 216.80, 222.30, 226.40, 134.00, 236.00, 241.50,
    245.60, 251.10, 255.20, 260.70, 264.80, 270.30, 274.40, 279.90, 284.00, 289.50, 293.61, 299.11,
    157.38,
];
const ONE_GROUP_ONE_4K: [f64; 63] = [
    33.47, 45.17, 56.87, 77.81, 89.52, 101.22, 112.92, 124.62, 136.33, 148.03, 159.73, 172.63,
    185.53, 198.44, 211.34, 224.24, 237.14, 250.05, 262.95, 275.85, 288.75, 301.65, 314.56, 341.66,
    340.36, 353.26, 366.17, 379.07, 391.97, 404.87, 417.78, 430.68, 443.58, 456.48, 470.38, 482.29,
    495.19, 508.09, 520.99, 533.90, 546.80, 559.70, 572.60, 585.50, 598.41, 611.31, 624.21, 622.51,
    650.02, 662.92, 675.82, 688.72, 701.63, 714.53, 727.43, 740.33, 753.23, 766.14, 779.04, 791.94,
    804.84, 817.75, 798.05,
];

/// The gather and the allgather are no slower than before the model
/// priced the gather's landings and the allgather's publication in place,
/// at 8 B, 512 B and 4 KB segments on 16-way nodes (2–16) and on
/// single-task nodes (2–64). The gather takes the landings on 16-way
/// nodes at 8 B (0.14–0.46 of the old time), on two to six single-task
/// nodes at 8 B and two to four at 512 B and 4 KB (0.36–0.78). On 16-way
/// nodes at 512 B, where the landed gather wins by up to 11 % on most
/// node counts but loses on 2 and 14, it stays direct. The allgather
/// publishes its blocks in place on 2×16 at 512 B (0.60); its other
/// points keep the broadcast (8 B) or outgrow a landing, at the same
/// time.
#[test]
fn gather_and_allgather_are_no_slower_than_before_the_landings() {
    let grids: [(Op, usize, usize, &[f64]); 12] = [
        (Op::Gather, 16, 8, &DIRECT_WIDE_8),
        (Op::Gather, 16, 512, &DIRECT_WIDE_512),
        (Op::Gather, 16, 4 << 10, &DIRECT_WIDE_4K),
        (Op::Gather, 1, 8, &DIRECT_ONE_8),
        (Op::Gather, 1, 512, &DIRECT_ONE_512),
        (Op::Gather, 1, 4 << 10, &DIRECT_ONE_4K),
        (Op::Allgather, 16, 8, &ONE_GROUP_WIDE_8),
        (Op::Allgather, 16, 512, &ONE_GROUP_WIDE_512),
        (Op::Allgather, 16, 4 << 10, &ONE_GROUP_WIDE_4K),
        (Op::Allgather, 1, 8, &ONE_GROUP_ONE_8),
        (Op::Allgather, 1, 512, &ONE_GROUP_ONE_512),
        (Op::Allgather, 1, 4 << 10, &ONE_GROUP_ONE_4K),
    ];
    let mut slower = Vec::new();
    for (op, tpn, len, before) in grids {
        for (nodes, &before_us) in (2..).zip(before) {
            let topo = Topology::new(nodes, tpn);
            let opts = HarnessOpts {
                iters: 2,
                srm: tuning(None),
            };
            let machine = MachineConfig::ibm_sp_colony();
            let us = measure(Impl::Srm, machine, topo, op, len, opts).per_call;
            if us.as_us() > before_us {
                slower.push(format!("{op:?} {topo}, {len} B: {us} vs {before_us} us"));
            }
        }
    }
    assert!(slower.is_empty(), "slower than before: {slower:#?}");
}

/// Where the model publishes an allgather's blocks in place on 16-way
/// nodes: never at 8 B on 2 to 16 nodes, where a use's fifteen flags
/// cost more than the bytes it saves copying, but at 512 B on 2 nodes,
/// the one node count whose assembled buffer fits a landing; never
/// where it does not. On 4×4 at 512 B, `cold_sweep`'s shape, it does.
#[test]
fn the_model_publishes_small_blocks_together_and_larger_ones_alone() {
    let in_place = |topo, len| {
        let model = SrmModel::new(MachineConfig::ibm_sp_colony(), topo, SrmTuning::default());
        model.allgather_in_place(len)
    };
    for nodes in 2..=16 {
        let topo = Topology::sp_16way(nodes);
        assert!(!in_place(topo, 8), "{topo}, 8 B");
        assert_eq!(in_place(topo, 512), nodes == 2, "{topo}, 512 B");
        assert!(!in_place(topo, 4 << 10), "{topo}, 4 KB");
    }
    assert!(in_place(Topology::new(4, 4), 512));
}

fn order_sensitive(rank: usize, call: usize) -> Vec<u8> {
    let vals: Vec<f64> = (0..64)
        .map(|i| [1e16, 1.0, -1e16][(rank + i + call) % 3] * (1 + (i + call) % 5) as f64)
        .collect();
    collops::to_bytes_f64(&vals)
}

/// Staggered entries on 2–8 nodes (one round of up to seven bumps), 14
/// and 16 (two rounds of three) and 17 (four, then a partial three): no
/// rank leaves a barrier before the last rank has entered it, whether
/// it is the world's blocking barrier or an `ibarrier` outstanding
/// beside an `iallreduce` and an `ibroadcast` on a parity split (whose
/// results are checked too).
#[test]
fn no_rank_leaves_a_barrier_before_the_last_one_enters() {
    for nodes in [2, 3, 5, 6, 7, 8, 14, 16, 17] {
        for nonblocking in [false, true] {
            let topo = Topology::new(nodes, 3);
            let n = topo.nprocs();
            let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
            let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
            let colors: Vec<i64> = (0..n).map(|r| (r % 2) as i64).collect();
            let subs = world.comm_split(&colors, &vec![0; n]);
            // (comm id, entered, left) per rank.
            let spans = Arc::new(Mutex::new(Vec::new()));
            for (rank, sub) in subs.into_iter().enumerate() {
                let (wcomm, spans) = (world.comm(rank), spans.clone());
                let sub = sub.expect("every rank has a color");
                sim.spawn(format!("rank{rank}"), move |ctx| {
                    // The latest entry is not always on the last node.
                    ctx.advance(SimTime::from_us((rank * 37 % 23) as u64 * 5));
                    let comm = if nonblocking { &sub } else { &wcomm };
                    let (entered, left) = if nonblocking {
                        let (gn, len) = (sub.size(), 512);
                        let sum = sub.alloc_buffer(len);
                        sum.with_mut(|d| d.copy_from_slice(&to_bytes_u64(&[rank as u64; 64])));
                        let bcast = sub.alloc_buffer(len);
                        if sub.comm_rank() == gn - 1 {
                            bcast.with_mut(|d| d.fill(0xa5));
                        }
                        let (u64_sum, op) = (DType::U64, ReduceOp::Sum);
                        let reqs = vec![
                            sub.iallreduce(&ctx, &sum, len, u64_sum, op),
                            sub.ibroadcast(&ctx, &bcast, len, gn - 1),
                        ];
                        let entered = ctx.now();
                        let barrier = sub.ibarrier(&ctx);
                        sub.wait(&ctx, barrier);
                        let left = ctx.now();
                        sub.wait_all(&ctx, reqs);
                        let total: u64 = sub.group().ranks().iter().map(|&r| r as u64).sum();
                        assert_eq!(from_bytes_u64(&sum.with(|d| d.to_vec())), [total; 64]);
                        assert!(bcast.with(|d| d.iter().all(|&b| b == 0xa5)));
                        (entered, left)
                    } else {
                        let entered = ctx.now();
                        wcomm.barrier(&ctx);
                        (entered, ctx.now())
                    };
                    spans.lock().unwrap().push((comm.comm_id(), entered, left));
                    wcomm.shutdown(&ctx);
                });
            }
            sim.run().expect("no deadlock");
            let spans = spans.lock().unwrap();
            for &(id, _, left) in spans.iter() {
                let entries = spans.iter().filter(|s| s.0 == id).map(|s| s.1);
                let last = entries.max().expect("the rank itself");
                let what = format!("{nodes} nodes, nonblocking {nonblocking}, comm {id}");
                assert!(left >= last, "{what}: left at {left}, last entry {last}");
            }
        }
    }
}

/// Order-sensitive doubles: every rank ends with the same bits, over
/// five back-to-back allreduces and then two `iallreduce`s outstanding
/// together. At 512 B, 3×2 and 5×3 run one round of two and of four
/// peers, 16×1 and 16×2 two radix-4 rounds (members 2 and 3 of a group
/// park their own value), and 17×2 radix 6: eleven extra nodes fold into
/// the six cores, two into most, and take the result back.
#[test]
fn small_allreduce_gives_every_rank_the_same_bits() {
    for (nodes, tpn, k) in [(3, 2, 3), (5, 3, 5), (16, 1, 4), (16, 2, 4), (17, 2, 6)] {
        let topo = Topology::new(nodes, tpn);
        let model = SrmModel::new(MachineConfig::ibm_sp_colony(), topo, SrmTuning::default());
        assert_eq!(model.allreduce_radix(512), k, "{topo}");
        let n = topo.nprocs();
        let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
        let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
        let out = Arc::new(Mutex::new(vec![Vec::new(); n]));
        for rank in 0..n {
            let (comm, out) = (world.comm(rank), out.clone());
            sim.spawn(format!("rank{rank}"), move |ctx| {
                let (len, sum) = (512, (DType::F64, ReduceOp::Sum));
                let fill = |call| {
                    let buf = comm.alloc_buffer(len);
                    buf.with_mut(|d| d.copy_from_slice(&order_sensitive(rank, call)));
                    buf
                };
                let mut bits = Vec::new();
                for call in 0..5 {
                    let buf = fill(call);
                    comm.allreduce(&ctx, &buf, len, sum.0, sum.1);
                    bits.extend(buf.with(|d| d.to_vec()));
                }
                let (a, b) = (fill(5), fill(6));
                let reqs = vec![
                    comm.iallreduce(&ctx, &a, len, sum.0, sum.1),
                    comm.iallreduce(&ctx, &b, len, sum.0, sum.1),
                ];
                comm.wait_all(&ctx, reqs);
                bits.extend(a.with(|d| d.to_vec()));
                bits.extend(b.with(|d| d.to_vec()));
                out.lock().unwrap()[rank] = bits;
                comm.shutdown(&ctx);
            });
        }
        sim.run().expect("no deadlock");
        let out = out.lock().unwrap();
        for (rank, bits) in out.iter().enumerate() {
            assert_eq!(bits, &out[0], "{topo}: rank {rank}");
        }
    }
}

/// Segment `c` of call `call`: bytes that name both.
fn segment(c: usize, call: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| (c * 31 + call * 7 + i) as u8).collect()
}

/// Every member ends with every member's segment, over five back-to-back
/// allgathers and then two `iallgather`s outstanding together, through
/// the landings (8 B, 512 B) and straight into the user buffers (4 KB).
/// 16×2 runs two radix-4 rounds up to 512 B and one round of fifteen
/// peers at 4 KB; 17×2 one round of sixteen; 21×2 radix 7 at 8 B, fourteen extra
/// nodes folded into the seven cores and back. On 4×4 the subgroup
/// `[1, 3, 4, 6, 7, 10, 13, 14, 15]` has one to three members a node,
/// and its permutation puts each node's blocks at scattered comm ranks,
/// so a message is several runs.
#[test]
fn allgather_gives_every_member_every_segment() {
    let subgroup = [1, 3, 4, 6, 7, 10, 13, 14, 15];
    let scattered = [14, 1, 7, 10, 3, 15, 4, 13, 6];
    // The radix at 8 B, 512 B and 4 KB.
    let worlds = [
        (16, 2, None, [4, 4, 16]),
        (17, 2, None, [17; 3]),
        (21, 2, None, [7, 21, 21]),
        (4, 4, Some(&subgroup[..]), [4; 3]),
        (4, 4, Some(&scattered[..]), [4; 3]),
    ];
    for (nodes, tpn, group, ks) in worlds {
        for (len, k) in [8, 512, 4 << 10].into_iter().zip(ks) {
            let topo = Topology::new(nodes, tpn);
            // A subgroup's model has its busiest node's members on each.
            let busiest = if group.is_some() { 3 } else { tpn };
            let machine = MachineConfig::ibm_sp_colony();
            let model = SrmModel::new(machine, Topology::new(nodes, busiest), SrmTuning::default());
            assert_eq!(model.allgather_radix(len), k, "{topo} {group:?}, {len} B");
            let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
            let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
            let members = match group {
                Some(ranks) => world.comm_create(ranks),
                None => (0..topo.nprocs()).map(|r| world.comm(r)).collect(),
            };
            let n = members.len();
            let out = Arc::new(Mutex::new(vec![Vec::new(); n]));
            for rank in 0..topo.nprocs() {
                let (wcomm, out) = (world.comm(rank), out.clone());
                let member = members.iter().find(|m| m.rank() == rank).cloned();
                sim.spawn(format!("rank{rank}"), move |ctx| {
                    if let Some(comm) = member {
                        let me = comm.comm_rank();
                        let fill = |call| {
                            let buf = comm.alloc_buffer(n * len);
                            let mine = segment(me, call, len);
                            buf.with_mut(|d| d[me * len..][..len].copy_from_slice(&mine));
                            buf
                        };
                        let mut got = Vec::new();
                        for call in 0..5 {
                            let buf = fill(call);
                            comm.allgather(&ctx, &buf, len);
                            got.push(buf.with(|d| d.to_vec()));
                        }
                        let (a, b) = (fill(5), fill(6));
                        let reqs = vec![
                            comm.iallgather(&ctx, &a, len),
                            comm.iallgather(&ctx, &b, len),
                        ];
                        comm.wait_all(&ctx, reqs);
                        got.extend([&a, &b].map(|buf| buf.with(|d| d.to_vec())));
                        out.lock().unwrap()[me] = got;
                    }
                    wcomm.shutdown(&ctx);
                });
            }
            sim.run().expect("no deadlock");
            for (me, got) in out.lock().unwrap().iter().enumerate() {
                for (call, buf) in got.iter().enumerate() {
                    let want: Vec<u8> = (0..n).flat_map(|c| segment(c, call, len)).collect();
                    let what = format!("{topo} {group:?}, {len} B, call {call}, comm rank {me}");
                    assert!(buf == &want, "{what}: wrong bytes");
                }
            }
        }
    }
}

/// Gathers whose root rotates through the ranks of one node, where the
/// node blocks land in the root's `Reduce` landings: on 4×4 at 8 B and
/// 512 B and on 3×3 at 8 B, each root of node 1 in turn, twice round,
/// then an `igather` to one root outstanding beside an `iallreduce` and
/// an `igather` to the next. A landing is per receiving slot and reused
/// two `Reduce` advances later, after its credit has come back, so a
/// later gather's block cannot land on one a root is still copying out.
/// Every root must end with every member's segment of its own call.
#[test]
fn gathers_rotating_through_one_nodes_roots_keep_their_landings() {
    for (nodes, tpn, len) in [(4, 4, 8), (4, 4, 512), (3, 3, 8)] {
        let topo = Topology::new(nodes, tpn);
        let model = SrmModel::new(MachineConfig::ibm_sp_colony(), topo, SrmTuning::default());
        assert!(
            model.gather_lands(len),
            "{topo}, {len} B: the gather goes direct"
        );
        let n = topo.nprocs();
        let roots: Vec<usize> = (0..2).flat_map(|_| tpn..2 * tpn).collect();
        let blocking = roots.len();
        let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
        let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
        let out = Arc::new(Mutex::new(vec![Vec::new(); n]));
        for rank in 0..n {
            let (comm, out, roots) = (world.comm(rank), out.clone(), roots.clone());
            sim.spawn(format!("rank{rank}"), move |ctx| {
                let fill = |call| {
                    let buf = comm.alloc_buffer(n * len);
                    let mine = segment(rank, call, len);
                    buf.with_mut(|d| d[rank * len..][..len].copy_from_slice(&mine));
                    buf
                };
                let mut got = Vec::new();
                for (call, &root) in roots.iter().enumerate() {
                    let buf = fill(call);
                    comm.gather(&ctx, &buf, len, root);
                    got.push((call, root, buf.with(|d| d.to_vec())));
                }
                let (a, b) = (fill(blocking), fill(blocking + 1));
                let sum = comm.alloc_buffer(64);
                sum.with_mut(|d| d.copy_from_slice(&to_bytes_u64(&[rank as u64; 8])));
                let (u64_sum, op) = (DType::U64, ReduceOp::Sum);
                let reqs = vec![
                    comm.igather(&ctx, &a, len, tpn + 1),
                    comm.iallreduce(&ctx, &sum, 64, u64_sum, op),
                    comm.igather(&ctx, &b, len, tpn + 2),
                ];
                comm.wait_all(&ctx, reqs);
                let total = (n * (n - 1) / 2) as u64;
                assert_eq!(from_bytes_u64(&sum.with(|d| d.to_vec())), vec![total; 8]);
                got.push((blocking, tpn + 1, a.with(|d| d.to_vec())));
                got.push((blocking + 1, tpn + 2, b.with(|d| d.to_vec())));
                out.lock().unwrap()[rank] = got;
                comm.shutdown(&ctx);
            });
        }
        sim.run().expect("no deadlock");
        for (rank, got) in out.lock().unwrap().iter().enumerate() {
            for (call, root, buf) in got.iter().filter(|g| g.1 == rank) {
                let want: Vec<u8> = (0..n).flat_map(|c| segment(c, *call, len)).collect();
                let what = format!("{topo}, {len} B, call {call} to root {root}");
                assert!(buf == &want, "{what}: wrong bytes");
            }
        }
    }
}

/// A landing published in place stays until the node has read it. On
/// 2×2 at 512 B the masters publish each landed block in place, so
/// rank 1 copies its peer node's block straight out of its
/// master's `Rd` landing. It leaves its first `iallgather` outstanding
/// through 300 µs of compute while the others run three allgathers
/// back to back; the third lands in the first one's landing. It must
/// not before rank 1 has read it: its master gathers rank 1's next
/// contribution, which follows that read, before putting again.
#[test]
fn a_slow_reader_keeps_its_in_place_landing() {
    let (topo, len) = (Topology::new(2, 2), 512);
    let model = SrmModel::new(MachineConfig::ibm_sp_colony(), topo, SrmTuning::default());
    assert!(model.allgather_in_place(len));
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
    let out = Arc::new(Mutex::new(vec![Vec::new(); 4]));
    for rank in 0..4 {
        let (comm, out) = (world.comm(rank), out.clone());
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let bufs: Vec<ShmBuffer> = (0..3)
                .map(|call| {
                    let buf = comm.alloc_buffer(4 * len);
                    let mine = segment(rank, call, len);
                    buf.with_mut(|d| d[rank * len..][..len].copy_from_slice(&mine));
                    buf
                })
                .collect();
            if rank == 1 {
                let req = comm.iallgather(&ctx, &bufs[0], len);
                ctx.advance(SimTime::from_us(300));
                comm.wait(&ctx, req);
            } else {
                comm.allgather(&ctx, &bufs[0], len);
            }
            for buf in &bufs[1..] {
                comm.allgather(&ctx, buf, len);
            }
            out.lock().unwrap()[rank] = bufs.iter().map(|b| b.with(|d| d.to_vec())).collect();
            comm.shutdown(&ctx);
        });
    }
    sim.run().expect("no deadlock");
    for (rank, got) in out.lock().unwrap().iter().enumerate() {
        for (call, buf) in got.iter().enumerate() {
            let want: Vec<u8> = (0..4).flat_map(|c| segment(c, call, len)).collect();
            assert!(buf == &want, "rank {rank}, call {call}: wrong bytes");
        }
    }
}

/// The exchange landings alternate with the recursive-doubling
/// allreduces, not with the `Reduce` cell: a one-chunk reduce between
/// two allreduces advances that by one, so the second allreduce would
/// land on the first one's half. Rank 0 leaves its first 12 KB
/// allreduce outstanding through 300 µs of compute with interrupts on
/// (above the quiet cut); rank 1 finishes it meanwhile, runs the reduce
/// to root 0 (as a leaf it needs nothing from rank 0) and sends its
/// next allreduce's contribution, which must not overwrite the first
/// one's before rank 0 has folded it.
///
/// The allgathers that fit one landing share those landings: rank 0
/// then leaves a 4 KB `iallgather`, a 12 KB `iallreduce` and a second
/// `iallgather` outstanding together through the same compute, while
/// rank 1 runs the three blocking, with interrupts on everywhere
/// (`interrupt_disable_max` 0) so that each put lands as it arrives.
/// The allreduce's put must not land in the first allgather's landing
/// before rank 0 has copied that out (it did when the allgather left
/// `SeqBase::Rd` alone), and the second allgather lands in the first
/// one's landing, two exchanging calls later.
#[test]
fn an_outstanding_allreduce_keeps_its_landing_across_a_rooted_call() {
    let topo = Topology::new(2, 1);
    let len = 12 << 10;
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
    let out = Arc::new(Mutex::new(vec![Vec::new(); 2]));
    for rank in 0..2 {
        let (comm, out) = (world.comm(rank), out.clone());
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let fill = |call: u64| {
                let buf = comm.alloc_buffer(len);
                let words = vec![(rank as u64 + 1) * 10 + call; len / 8];
                buf.with_mut(|d| d.copy_from_slice(&to_bytes_u64(&words)));
                buf
            };
            let (first, rooted, second) = (fill(0), fill(1), fill(2));
            let run =
                |c: &SrmComm, b: &ShmBuffer| c.allreduce(&ctx, b, len, DType::U64, ReduceOp::Sum);
            if rank == 0 {
                let req = comm.iallreduce(&ctx, &first, len, DType::U64, ReduceOp::Sum);
                ctx.advance(SimTime::from_us(300));
                comm.wait(&ctx, req);
            } else {
                run(&comm, &first);
            }
            comm.reduce(&ctx, &rooted, len, DType::U64, ReduceOp::Sum, 0);
            run(&comm, &second);
            let words = |b: &ShmBuffer| from_bytes_u64(&b.with(|d| d.to_vec()))[0];
            out.lock().unwrap()[rank] = vec![words(&first), words(&second)];
            comm.shutdown(&ctx);
        });
    }
    sim.run().expect("no deadlock");
    for words in out.lock().unwrap().iter() {
        assert_eq!(words, &[10 + 20, 12 + 22]);
    }

    let gather_len = 4 << 10;
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let loud = SrmTuning {
        interrupt_disable_max: 0,
        ..SrmTuning::default()
    };
    let world = SrmWorld::new(&mut sim, topo, loud);
    let out = Arc::new(Mutex::new(vec![Vec::new(); 2]));
    for rank in 0..2 {
        let (comm, out) = (world.comm(rank), out.clone());
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let gathered = |call| {
                let buf = comm.alloc_buffer(2 * gather_len);
                let mine = segment(rank, call, gather_len);
                buf.with_mut(|d| d[rank * gather_len..][..gather_len].copy_from_slice(&mine));
                buf
            };
            let (first, second) = (gathered(0), gathered(1));
            let sum = comm.alloc_buffer(len);
            sum.with_mut(|d| d.copy_from_slice(&to_bytes_u64(&vec![rank as u64 + 1; len / 8])));
            let (u64_sum, op) = (DType::U64, ReduceOp::Sum);
            if rank == 0 {
                let reqs = vec![
                    comm.iallgather(&ctx, &first, gather_len),
                    comm.iallreduce(&ctx, &sum, len, u64_sum, op),
                    comm.iallgather(&ctx, &second, gather_len),
                ];
                ctx.advance(SimTime::from_us(300));
                comm.wait_all(&ctx, reqs);
            } else {
                comm.allgather(&ctx, &first, gather_len);
                comm.allreduce(&ctx, &sum, len, u64_sum, op);
                comm.allgather(&ctx, &second, gather_len);
            }
            let bufs = [&first, &second].map(|b| b.with(|d| d.to_vec()));
            assert_eq!(from_bytes_u64(&sum.with(|d| d.to_vec())), vec![3; len / 8]);
            out.lock().unwrap()[rank] = bufs.concat();
            comm.shutdown(&ctx);
        });
    }
    sim.run().expect("no deadlock");
    let want: Vec<u8> = (0..2)
        .flat_map(|call| (0..2).flat_map(move |c| segment(c, call, gather_len)))
        .collect();
    for (rank, got) in out.lock().unwrap().iter().enumerate() {
        assert!(got == &want, "rank {rank}: wrong allgathered bytes");
    }
}

/// The mean virtual time of two `op` calls of `len` bytes rooted at comm
/// rank `root`, in µs, measured as `harness::measure` measures rank 0's:
/// one warm-up call and a barrier first, from the last rank's start to
/// the last rank's finish.
fn rooted_us(topo: Topology, op: Op, len: usize, root: usize) -> f64 {
    let (n, iters) = (topo.nprocs(), 2);
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
    let spans = Arc::new(Mutex::new(Vec::new()));
    for rank in 0..n {
        let (comm, spans) = (world.comm(rank), spans.clone());
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let shape = op.shape(len, root, n);
            let buf = comm.alloc_buffer(shape.extent(n));
            let sum = Some((DType::F64, ReduceOp::Sum));
            comm.call(&ctx, shape.clone(), &buf, sum);
            comm.barrier(&ctx);
            let begin = ctx.now();
            for _ in 0..iters {
                comm.call(&ctx, shape.clone(), &buf, sum);
            }
            spans.lock().unwrap().push((begin, ctx.now()));
            comm.shutdown(&ctx);
        });
    }
    sim.run().expect("no deadlock");
    let spans = spans.lock().unwrap();
    let start = spans.iter().map(|s| s.0).max().expect("ranks");
    let end = spans.iter().map(|s| s.1).max().expect("ranks");
    (end - start).as_us() / iters as f64
}

// The reduce and the scatter before their root's node master stopped
// relaying (`harness::measure`'s method, `rooted_us`), in µs rounded up,
// rooted at the last rank and at `n/2 + 1`: on 16-way nodes from 2 to
// 16, then (the reduce) on 4×4.
const RELAYED_REDUCE_8: [[f64; 2]; 16] = [
    [13.56, 13.20],
    [14.62, 14.38],
    [22.54, 22.18],
    [23.60, 23.36],
    [23.35, 23.55],
    [23.66, 23.42],
    [43.57, 34.21],
    [44.64, 38.40],
    [44.19, 34.83],
    [43.74, 37.50],
    [44.33, 34.97],
    [44.64, 41.29],
    [44.89, 35.53],
    [32.92, 32.65],
    [52.55, 43.19],
    [21.36, 21.24],
];
const RELAYED_REDUCE_4K: [[f64; 2]; 16] = [
    [86.25, 73.89],
    [96.50, 90.26],
    [114.47, 102.11],
    [123.71, 117.47],
    [124.27, 114.91],
    [123.82, 117.58],
    [142.11, 132.75],
    [151.35, 145.11],
    [150.90, 141.54],
    [150.45, 144.21],
    [151.01, 141.65],
    [150.56, 144.32],
    [152.56, 143.20],
    [148.24, 141.97],
    [160.46, 151.10],
    [82.71, 79.59],
];
const RELAYED_SCATTER_512: [[f64; 2]; 15] = [
    [40.40, 40.37],
    [77.18, 77.00],
    [89.34, 89.37],
    [112.29, 113.01],
    [135.25, 136.18],
    [158.20, 159.37],
    [181.16, 182.54],
    [204.11, 205.73],
    [227.07, 228.90],
    [250.02, 252.09],
    [272.98, 275.26],
    [295.93, 298.45],
    [323.84, 318.67],
    [340.39, 342.76],
    [363.34, 368.87],
];

/// At roots that are not their node's master the reduce and the scatter
/// are no slower than when the master relayed for the root: the reduce
/// now runs its node's tree rooted at the root, and the child nodes put
/// straight into the root's landings; the scatter's root puts each
/// remote node's pieces into that node's broadcast landings itself.
///
/// Points measured slower, and so not asserted here (CHANGES.md): the
/// scatter on 4×4 (29.14 and 31.37 µs against 26.95 and 27.64), and the
/// small broadcast on these worlds at all 32 points at 8 B (0.1–12 µs
/// slower) and 29 of 32 at 4 KB (up to 0.5 µs). The root now pays the
/// interrupt switch the master paid beside it, and a credit that comes
/// back to it after its call, in the harness's barrier, is taken as an
/// interrupt.
#[test]
fn the_reduce_and_scatter_at_non_master_roots_are_no_slower_than_relayed() {
    let worlds: Vec<Topology> = (2..=16).map(Topology::sp_16way).collect();
    let worlds = worlds.into_iter().chain([Topology::new(4, 4)]);
    let grids: [(Op, usize, &[[f64; 2]]); 3] = [
        (Op::Reduce, 8, &RELAYED_REDUCE_8),
        (Op::Reduce, 4 << 10, &RELAYED_REDUCE_4K),
        (Op::Scatter, 512, &RELAYED_SCATTER_512),
    ];
    for (op, len, relayed) in grids {
        for (topo, pins) in worlds.clone().zip(relayed) {
            let n = topo.nprocs();
            for (root, &relayed_us) in [n - 1, n / 2 + 1].into_iter().zip(pins) {
                let us = rooted_us(topo, op, len, root);
                assert!(
                    us <= relayed_us,
                    "{topo}, {op:?} {len} B at root {root}: {us:.2} vs relayed {relayed_us} us"
                );
            }
        }
    }
}
