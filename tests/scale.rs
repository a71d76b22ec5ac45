//! Worlds past the paper's 256 processors: 1 024 ranks (64×16) and
//! 4 096 ranks (256×16) run a verified barrier and small broadcasts
//! inside tier-1, and the barrier's virtual time is checked against
//! the tree-height claim the paper could only make up to 16 nodes —
//! ⌈log₂ n⌉ + ⌈log₂ p⌉ dependent steps — and against `SrmModel`.
//!
//! A world of each size is built, run and dropped once per process and
//! its wall time printed; the tests that need it share the outcome.

use collops::Collectives;
use simnet::{MachineConfig, Sim, SimTime, Topology};
use srm::{SrmModel, SrmTuning, SrmWorld};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Timed barriers per world, after the one that warms up.
const BARRIERS: u64 = 2;
/// `tests/model_accuracy.rs`'s envelope.
const MAX_FACTOR: f64 = 2.5;

struct Outcome {
    /// Virtual time per barrier: last rank's start to last rank's finish.
    barrier: SimTime,
    /// Dependent steps of the embedded tree rooted at rank 0.
    height: usize,
    /// Host time to construct, run and drop the world.
    wall: Duration,
}

fn payload(root: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 + root * 7 + len) as u8).collect()
}

/// Every rank of a `nodes`×16 world: an 8-byte and a 4 KB broadcast
/// from rank 0 and from the last rank, each checked on arrival, then
/// the barriers.
fn run_world(nodes: usize) -> Outcome {
    let started = Instant::now();
    let topo = Topology::sp_16way(nodes);
    let n = topo.nprocs();
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
    let spans = Arc::new(Mutex::new(Vec::with_capacity(n)));
    for rank in 0..n {
        let comm = world.comm(rank);
        let spans = spans.clone();
        sim.spawn(format!("rank{rank}"), move |ctx| {
            for root in [0, n - 1] {
                for len in [8, 4096] {
                    let buf = comm.alloc_buffer(len);
                    let sent = payload(root, len);
                    if rank == root {
                        buf.with_mut(|d| d.copy_from_slice(&sent));
                    }
                    comm.broadcast(&ctx, &buf, len, root);
                    assert!(
                        buf.with(|d| d == &sent[..]),
                        "rank {rank}: wrong {len}-byte broadcast from {root}"
                    );
                }
            }
            comm.barrier(&ctx);
            let start = ctx.now();
            for _ in 0..BARRIERS {
                comm.barrier(&ctx);
            }
            spans.lock().unwrap().push((start, ctx.now()));
            comm.shutdown(&ctx);
        });
    }
    let height = world
        .comm(0)
        .group()
        .embedded_height(srm::TreeKind::Binomial);
    drop(world);
    sim.run().expect("every rank verifies and finishes");
    let spans = spans.lock().unwrap();
    assert_eq!(spans.len(), n);
    let start = spans.iter().map(|s| s.0).max().expect("nonempty");
    let end = spans.iter().map(|s| s.1).max().expect("nonempty");
    let outcome = Outcome {
        barrier: SimTime::from_ps((end - start).as_ps() / BARRIERS),
        height,
        wall: started.elapsed(),
    };
    println!(
        "scale: {nodes}x16 = {n} ranks: height {height}, barrier {}, wall {:.2?}",
        outcome.barrier, outcome.wall
    );
    outcome
}

fn outcome(nodes: usize) -> &'static Outcome {
    static RUNS: [OnceLock<Outcome>; 3] = [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    let slot = [16, 64, 256]
        .iter()
        .position(|&n| n == nodes)
        .expect("a size this file runs");
    RUNS[slot].get_or_init(|| run_world(nodes))
}

fn check_world(nodes: usize, budget: Duration) {
    let o = outcome(nodes);
    // ⌈log₂ n⌉ + ⌈log₂ p⌉ with p = 16.
    assert_eq!(o.height, nodes.next_power_of_two().ilog2() as usize + 4);
    assert!(
        o.wall < budget,
        "{nodes}x16 world took {:.2?}, budget {budget:.0?}",
        o.wall
    );
}

#[test]
fn world_of_1024_ranks_verifies_within_budget() {
    check_world(64, Duration::from_secs(10));
}

#[test]
fn world_of_4096_ranks_verifies_within_budget() {
    check_world(256, Duration::from_secs(30));
}

#[test]
fn barrier_time_grows_with_the_tree_and_tracks_the_model() {
    let mut previous = SimTime::ZERO;
    for nodes in [16, 64, 256] {
        let o = outcome(nodes);
        assert!(
            o.barrier > previous,
            "barrier at {nodes} nodes ({}) not above the smaller world's ({previous})",
            o.barrier
        );
        previous = o.barrier;
        let predicted = SrmModel::new(
            MachineConfig::ibm_sp_colony(),
            Topology::sp_16way(nodes),
            SrmTuning::default(),
        )
        .barrier();
        let ratio = o.barrier.as_us() / predicted.as_us();
        println!(
            "scale: {nodes} nodes: barrier {} vs model {predicted} (x{ratio:.2})",
            o.barrier
        );
        assert!(
            (1.0 / MAX_FACTOR..MAX_FACTOR).contains(&ratio),
            "barrier on {nodes} nodes: model {predicted} vs sim {} (x{ratio:.2})",
            o.barrier
        );
    }
}
