//! Rules checked on compiled plans, without running them.
//!
//! **One producer per contribution channel.** Slot `s`'s contribution
//! channel on a node is written, and its READY flag raised, by slot
//! `s` alone: every handoff between two tasks of a node goes through
//! the channel of the task that produces it. The channel's consumers
//! change between calls and keep its DONE flag in order themselves
//! (`NodeBoard::contrib`). The producer writes a buffer of its channel
//! only in a publish: right after the drain guard of that use, right
//! before the READY raise past it.
//!
//! **One address rule.** Every `AddrSend` ships one of the sender's own
//! buffers (`User` or `Scratch`, never a `Taken` handle) to a rank on
//! another node, and every put into a taken handle goes to the rank
//! that shipped it and bumps that rank's counter: its `Landed`, or the
//! `PairwiseDirect` counter of the stream into it. So the shipper is
//! the put target and waits for the puts itself (`CtrRef::Landed`).
//!
//! **One write per exchange landing.** Across every member's plan of
//! one small allreduce, or of one allgather whose assembled buffer fits
//! a landing, each byte of each `Rd` landing (receiver, sender, parity)
//! is written at most once, and only by its sender's master, with puts
//! that bump the landing's own counter. Each landing that is put into
//! is waited on once, at its receiver's master, for exactly those puts
//! (an allgather's message is one put per run of segments). So a
//! landing needs no credit within a call (DESIGN.md §16.2), however
//! many senders a round has. A larger allgather puts into no landing,
//! and the address rule holds on every master's plan of it.
//!
//! **One writer per gather landing.** Where a gather takes the node
//! blocks in the root's `Reduce` landings, each remote node's block is
//! put into one landing by that node's master alone, at disjoint bytes
//! that fit it; the root waits on it once for exactly those puts, and
//! returns the one credit the master spent, so every credit is back at
//! its entry value when the call ends.
//!
//! **Flags only count up.** Every flag raise names a sequence target
//! and every wait on a flag waits for at least a value (or for a side
//! to drain), so no flag is ever stored back down: the flat barrier's
//! flags count its phases like every other flag.
//!
//! **One wire rank per node.** In a rooted call each node's cross-node
//! traffic goes through one rank, its wire rank: the root on the root's
//! node, the master elsewhere. On the root's node only the root issues
//! a put or is the target of one. Every channel names its two wire
//! ranks: a credit goes back to the channel's sender, a put lands at
//! its receiver.

use collops::{Op, Shape};
use simnet::{MachineConfig, Sim, Topology};
use srm::plan::{
    BufRef, Chan, ChanKind, CtrRef, FlagRef, Plan, SeqBase, Step, Until, Val, WaitCell,
};
use srm::{SrmComm, SrmModel, SrmTuning, SrmWorld};
use std::collections::HashMap;

/// The contribution channel `step` produces into, if any: a copy into
/// its buffer or a raise of its READY flag.
fn produced_channel(step: &Step) -> Option<usize> {
    match *step {
        Step::ShmCopy {
            dst: BufRef::Contrib { slot: s, .. },
            ..
        }
        | Step::FlagRaise {
            flag: FlagRef::Ready(s),
            ..
        } => Some(s),
        _ => None,
    }
}

/// Roots 0, last, and the first non-master comm rank of the upper
/// half.
fn roots(members: &[SrmComm]) -> Vec<usize> {
    let n = members.len();
    let group = members[0].group();
    let middle = (n / 2..n)
        .find(|&c| group.coord_of(c).1 != 0)
        .expect("a non-master rank in the upper half");
    vec![0, n - 1, middle]
}

/// The ten shapes at every root and sizes of one and of three reduce
/// chunks, plus a 256 KB broadcast (the large protocol) at every root.
fn shapes(members: &[SrmComm]) -> Vec<Shape> {
    let chunk = SrmTuning::REDUCE_CHUNK;
    let n = members.len();
    let mut out = Vec::new();
    for root in roots(members) {
        for op in Op::ALL {
            for len in [8, 3 * chunk - 8] {
                out.push(op.shape(len, root, n));
            }
        }
        out.push(Op::Bcast.shape(256 << 10, root, n));
    }
    out
}

/// A rule over one member's plan, handed a description of the plan for
/// its messages; true if the rule had anything to check.
type Rule = fn(&str, &SrmComm, &Plan) -> bool;

/// Compile every member's plan of every shape and apply `rule` to it;
/// return how many plans the rule applied to.
fn check_members(what: &str, members: &[SrmComm], rule: Rule) -> usize {
    let mut applied = 0;
    for shape in shapes(members) {
        for comm in members {
            let plan = comm.build_plan(&comm.key(shape.clone()));
            let what = format!("{what}, {shape:?}, comm rank {}", comm.comm_rank());
            applied += usize::from(rule(&what, comm, &plan));
        }
    }
    applied
}

/// Every world of the three topologies, plus an uneven and
/// non-contiguous 4x4 subgroup; `rule` must apply somewhere in each.
fn check_worlds(rule: Rule) {
    for (nodes, tpn) in [(2, 3), (3, 2), (4, 4)] {
        let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
        let topo = Topology::new(nodes, tpn);
        let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
        let members = (0..topo.nprocs()).map(|r| world.comm(r)).collect();
        let mut comms = vec![(format!("{nodes}x{tpn} world"), members)];
        if (nodes, tpn) == (4, 4) {
            // One to three members per node.
            let subgroup = world.comm_create(&[1, 3, 4, 6, 7, 10, 13, 14, 15]);
            comms.push(("4x4 subgroup".to_string(), subgroup));
        }
        for (what, members) in comms {
            let applied = check_members(&what, &members, rule);
            assert!(applied > 0, "{what}: the rule applied to no plan");
        }
    }
}

/// Slot `s` produces into slot `s`'s channel only; true if the plan
/// produced into one.
fn one_producer(what: &str, comm: &SrmComm, plan: &Plan) -> bool {
    let mine = comm.group().coord_of(comm.comm_rank()).1;
    let mut produced = false;
    for step in &plan.steps {
        if let Some(s) = produced_channel(step) {
            let broken = format!("{what}: slot {mine} produces into slot {s}'s channel");
            assert_eq!(s, mine, "{broken}: {step:?}");
            produced = true;
        }
    }
    produced
}

/// Every copy into a contribution buffer, of use `rel` of slot `s`'s
/// channel, sits between the `Done(s)` drain guard of that use and the
/// `Ready(s)` raise past it; true if the plan published.
fn writes_only_in_publish(what: &str, _: &SrmComm, plan: &Plan) -> bool {
    let steps = &plan.steps;
    let mut published = false;
    for (i, step) in steps.iter().enumerate() {
        let Step::ShmCopy {
            dst: BufRef::Contrib { slot, rel },
            ..
        } = *step
        else {
            continue;
        };
        let guarded = i > 0
            && matches!(steps[i - 1], Step::Wait {
                cell: WaitCell::Flag(FlagRef::Done(s)),
                until: Until::SideDrained { base: SeqBase::Reduce, rel: r },
                ..
            } if (s, r) == (slot, rel));
        let raised = matches!(steps.get(i + 1), Some(&Step::FlagRaise {
            flag: FlagRef::Ready(s),
            val: Val::Seq { base: SeqBase::Reduce, rel: r },
        }) if (s, r) == (slot, rel + 1));
        let broken = format!("{what}: step {i} writes slot {slot}'s channel outside a publish");
        assert!(guarded && raised, "{broken}: {step:?}");
        published = true;
    }
    published
}

/// The address rule; true if the plan ships or takes a handle.
fn address_rule(what: &str, comm: &SrmComm, plan: &Plan) -> bool {
    let group = comm.group();
    let node_of = |c: usize| group.coord_of(c).0;
    let me = comm.comm_rank();
    // Comm rank each slot wait took from, in capture order.
    let (mut taken, mut shipped) = (Vec::new(), false);
    for step in &plan.steps {
        match *step {
            Step::AddrSend { to, src } => {
                shipped = true;
                let to = group.comm_rank_of(to).expect("a member");
                let on_one_node = node_of(to) == node_of(me);
                assert!(!on_one_node, "{what}: handed over on one node: {step:?}");
                let own = matches!(src, BufRef::User | BufRef::Scratch);
                assert!(own, "{what}: ships a handle it does not own: {step:?}");
            }
            Step::Wait {
                cell: WaitCell::Slot { from },
                ..
            } => taken.push(from),
            Step::RmaPut {
                to,
                dst: BufRef::Taken { idx },
                ctr,
                ..
            } => {
                let owner = taken[idx];
                let past = format!("{what}: put past the handle's owner");
                assert_eq!(to, group.ranks()[owner], "{past}: {step:?}");
                let owners = match ctr {
                    Some(CtrRef::Landed { rank }) => rank == owner,
                    Some(CtrRef::PairwiseDirect { src, dst }) => src == me && dst == owner,
                    _ => false,
                };
                let none = format!("{what}: bumps no counter of owner {owner}");
                assert!(owners, "{none}: {step:?}");
            }
            _ => {}
        }
    }
    shipped || !taken.is_empty()
}

#[test]
fn every_contribution_channel_has_one_producer() {
    check_worlds(one_producer);
}

#[test]
fn contribution_buffers_are_written_only_by_a_publish() {
    check_worlds(writes_only_in_publish);
}

#[test]
fn every_handle_is_shipped_by_its_owner_to_another_node_and_put_into_by_the_taker() {
    check_worlds(address_rule);
}

/// A landing: its receiving and sending ranks and its lane.
fn landing_key(c: Chan) -> (usize, usize, u32) {
    (c.dst, c.src, c.lane)
}

/// The landing rule over every member's plan of one call: collect the
/// puts into and the waits on each `Rd` landing, checking each writer
/// and waiter; return how many landings were waited on.
fn rd_landings_are_written_once(what: &str, members: &[SrmComm], plans: &[Plan]) -> usize {
    let group = members[0].group();
    let (mut puts, mut waits) = (HashMap::new(), HashMap::new());
    for (comm, plan) in members.iter().zip(plans) {
        let (me, slot) = (comm.comm_rank(), group.coord_of(comm.comm_rank()).1);
        for step in &plan.steps {
            let at = format!("{what}, comm rank {}: {step:?}", comm.comm_rank());
            match *step {
                Step::RmaPut {
                    to,
                    dst: BufRef::Chan(c),
                    dst_off,
                    len,
                    ctr,
                    ..
                } if c.kind == ChanKind::Rd => {
                    assert_eq!((c.src, slot), (me, 0), "{at}: not the sender's master");
                    let master = group.coord_of(c.dst).1 == 0;
                    assert!(master, "{at}: not to a master");
                    assert_eq!(to, group.ranks()[c.dst], "{at}: past the receiver");
                    let own = matches!(ctr, Some(CtrRef::Data(d))
                        if d.kind == c.kind && landing_key(d) == landing_key(c));
                    assert!(own, "{at}: bumps another counter");
                    let bytes = dst_off..dst_off + len;
                    puts.entry(landing_key(c))
                        .or_insert_with(Vec::new)
                        .push(bytes);
                }
                Step::ShmCopy {
                    dst: BufRef::Chan(c),
                    ..
                } if c.kind == ChanKind::Rd => panic!("{at}: written by a copy"),
                Step::Wait {
                    cell: WaitCell::Ctr(CtrRef::Data(c)),
                    until,
                    ..
                } if c.kind == ChanKind::Rd => {
                    assert_eq!((c.dst, slot), (me, 0), "{at}: not the receiver's master");
                    let Until::Ge(Val::Lit(n)) = until else {
                        panic!("{at}: waits for no count of puts");
                    };
                    waits.entry(landing_key(c)).or_insert_with(Vec::new).push(n);
                }
                _ => {}
            }
        }
    }
    for (key, bytes) in &mut puts {
        bytes.sort_by_key(|r| r.start);
        let ends = bytes.iter().zip(bytes.iter().skip(1));
        for (a, b) in ends {
            assert!(
                a.end <= b.start,
                "{what}: landing {key:?} bytes {b:?} written twice"
            );
        }
        let landed = SrmTuning::REDUCE_CHUNK;
        assert!(
            bytes.last().is_some_and(|r| r.end <= landed),
            "{what}: {key:?} overflows"
        );
        assert!(
            waits.contains_key(key),
            "{what}: landing {key:?} put into, never waited on"
        );
    }
    for (key, ns) in &waits {
        assert_eq!(
            ns.len(),
            1,
            "{what}: landing {key:?} waited on {} times",
            ns.len()
        );
        let put = puts.get(key).map_or(0, Vec::len) as u64;
        assert_eq!(
            ns[0], put,
            "{what}: landing {key:?} waits for {} of {put} puts",
            ns[0]
        );
    }
    waits.len()
}

/// Small allreduces at 8 B, 512 B, 4 KB and one reduce chunk on worlds
/// that run one round (3×2, 4×4), two radix-4 rounds (16×1), and folds
/// at radix 6 and at radix 2 (17×1 at 512 B and at 4 KB), plus the
/// uneven 4×4 subgroup; allgathers of the same segments, which use the
/// landings where their assembled buffer fits one and put straight into
/// the user buffers, under the address rule, where it does not.
#[test]
fn every_exchange_landing_is_written_once_per_call_by_its_sender() {
    let chunk = SrmTuning::REDUCE_CHUNK;
    for (nodes, tpn) in [(3, 2), (4, 4), (16, 1), (17, 1)] {
        let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
        let topo = Topology::new(nodes, tpn);
        let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
        let members: Vec<SrmComm> = (0..topo.nprocs()).map(|r| world.comm(r)).collect();
        let mut comms = vec![(format!("{nodes}x{tpn} world"), members)];
        if (nodes, tpn) == (4, 4) {
            let subgroup = world.comm_create(&[1, 3, 4, 6, 7, 10, 13, 14, 15]);
            comms.push(("4x4 subgroup".to_string(), subgroup));
        }
        for (what, members) in comms {
            let n = members.len();
            for len in [8, 512, 4 << 10, chunk] {
                for op in [Op::Allreduce, Op::Allgather] {
                    let shape = op.shape(len, 0, n);
                    let plans: Vec<Plan> = members
                        .iter()
                        .map(|c| c.build_plan(&c.key(shape.clone())))
                        .collect();
                    let what = format!("{what}, {op:?} {len} B");
                    let waited = rd_landings_are_written_once(&what, &members, &plans);
                    if op == Op::Allreduce || n * len <= chunk {
                        assert!(waited > 0, "{what}: no exchange landing waited on");
                        continue;
                    }
                    assert_eq!(waited, 0, "{what}: a landing past its size");
                    for (comm, plan) in members.iter().zip(&plans) {
                        let what = format!("{what}, comm rank {}", comm.comm_rank());
                        let master = comm.group().coord_of(comm.comm_rank()).1 == 0;
                        assert_eq!(address_rule(&what, comm, plan), master, "{what}");
                    }
                }
            }
        }
    }
}

/// The gather landing rule over every member's plan of one gather to
/// `root`: collect the puts into, the waits on and the credits of each
/// `Reduce` landing, checking each writer and waiter; return how many
/// landings were put into.
fn gather_landings_are_credited(
    what: &str,
    members: &[SrmComm],
    plans: &[Plan],
    root: usize,
) -> usize {
    let group = members[0].group();
    let node_of = |c: usize| group.coord_of(c).0;
    // Per landing: the puts' senders and bytes, the root's waits, and
    // the credits taken and returned.
    let (mut puts, mut waits) = (HashMap::new(), HashMap::new());
    let mut credits: HashMap<_, i64> = HashMap::new();
    for (comm, plan) in members.iter().zip(plans) {
        let me = comm.comm_rank();
        for step in &plan.steps {
            let at = format!("{what}, comm rank {me}: {step:?}");
            match *step {
                Step::RmaPut {
                    to,
                    dst: BufRef::Chan(c),
                    dst_off,
                    len,
                    ctr,
                    ..
                } => {
                    assert_eq!(c.kind, ChanKind::Reduce, "{at}: not a gather landing");
                    assert_eq!((c.src, c.dst), (me, root), "{at}: not mine to the root");
                    let remote_master = group.coord_of(me).1 == 0 && node_of(me) != node_of(root);
                    assert!(remote_master, "{at}: not a remote master");
                    assert_eq!(to, group.ranks()[root], "{at}: past the root");
                    let own = matches!(ctr, Some(CtrRef::Data(d))
                        if d.kind == c.kind && landing_key(d) == landing_key(c));
                    assert!(own, "{at}: bumps another counter");
                    let put = (me, dst_off..dst_off + len);
                    puts.entry(landing_key(c))
                        .or_insert_with(Vec::new)
                        .push(put);
                }
                Step::Wait {
                    cell: WaitCell::Ctr(CtrRef::Data(c)),
                    until,
                    ..
                } => {
                    assert_eq!(me, root, "{at}: not the root");
                    let Until::Ge(Val::Lit(n)) = until else {
                        panic!("{at}: waits for no count of puts");
                    };
                    waits.entry(landing_key(c)).or_insert_with(Vec::new).push(n);
                }
                Step::Wait {
                    cell: WaitCell::Ctr(CtrRef::Free(c)),
                    until: Until::Ge(Val::Lit(n)),
                    consume: true,
                    ..
                } => *credits.entry(landing_key(c)).or_default() -= n as i64,
                Step::CounterPut {
                    to,
                    ctr: CtrRef::Free(c),
                } => {
                    assert_eq!((me, to), (root, group.ranks()[c.src]), "{at}");
                    *credits.entry(landing_key(c)).or_default() += 1;
                }
                _ => {}
            }
        }
    }
    for (key, puts) in &mut puts {
        let senders: Vec<usize> = puts.iter().map(|p| p.0).collect();
        let one = senders.iter().all(|&s| s == senders[0]);
        assert!(one, "{what}: landing {key:?} written by {senders:?}");
        puts.sort_by_key(|p| p.1.start);
        for (a, b) in puts.iter().zip(puts.iter().skip(1)) {
            assert!(
                a.1.end <= b.1.start,
                "{what}: landing {key:?} bytes {:?} written twice",
                b.1
            );
        }
        let fits = puts
            .last()
            .is_some_and(|p| p.1.end <= SrmTuning::REDUCE_CHUNK);
        assert!(fits, "{what}: {key:?} overflows");
        let n = waits.get(key).map(Vec::as_slice);
        assert_eq!(
            n,
            Some(&[puts.len() as u64][..]),
            "{what}: landing {key:?} waits"
        );
        let credit = credits.get(key).copied();
        assert_eq!(credit, Some(0), "{what}: landing {key:?} credits");
    }
    assert_eq!(
        waits.len(),
        puts.len(),
        "{what}: a landing waited on, never put into"
    );
    assert!(
        credits.values().all(|&c| c == 0),
        "{what}: credits {credits:?}"
    );
    puts.len()
}

/// Gathers at roots 0, last and middle, at 8 B, 512 B and 4 KB segments,
/// on 3×2, 4×4 and its uneven subgroup, 16×1 and 17×1. Where the model
/// takes the landings, every remote node's block lands in one `Reduce`
/// landing of the root's, written by that node's master alone at
/// disjoint bytes, waited on once by the root for exactly its puts, and
/// the credit the master spends the root returns. Elsewhere no landing
/// is put into and the address rule holds on every plan.
#[test]
fn every_gather_landing_is_written_by_one_remote_master_and_its_credit_returns() {
    for (nodes, tpn) in [(3, 2), (4, 4), (16, 1), (17, 1)] {
        let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
        let topo = Topology::new(nodes, tpn);
        let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
        let members: Vec<SrmComm> = (0..topo.nprocs()).map(|r| world.comm(r)).collect();
        let mut comms = vec![(format!("{nodes}x{tpn} world"), members)];
        if (nodes, tpn) == (4, 4) {
            let subgroup = world.comm_create(&[1, 3, 4, 6, 7, 10, 13, 14, 15]);
            comms.push(("4x4 subgroup".to_string(), subgroup));
        }
        for (what, members) in comms {
            let n = members.len();
            let busiest = (0..members[0].group().node_count())
                .map(|g| members[0].group().slots_on(g))
                .max()
                .expect("a node");
            let model_topo = Topology::new(members[0].group().node_count(), busiest);
            let model = SrmModel::new(
                MachineConfig::ibm_sp_colony(),
                model_topo,
                SrmTuning::default(),
            );
            let mut landed = 0;
            for root in [0, n - 1, n / 2] {
                for len in [8, 512, 4 << 10] {
                    let shape = Op::Gather.shape(len, root, n);
                    let plans: Vec<Plan> = (members.iter())
                        .map(|c| c.build_plan(&c.key(shape.clone())))
                        .collect();
                    let what = format!("{what}, gather {len} B to {root}");
                    let put_into = gather_landings_are_credited(&what, &members, &plans, root);
                    if model.gather_lands(len) {
                        assert_eq!(put_into, members[0].group().node_count() - 1, "{what}");
                        landed += 1;
                        continue;
                    }
                    assert_eq!(put_into, 0, "{what}: a landing the model did not price");
                    for (comm, plan) in members.iter().zip(&plans) {
                        let what = format!("{what}, comm rank {}", comm.comm_rank());
                        address_rule(&what, comm, plan);
                    }
                }
            }
            let lands = (nodes, tpn) != (16, 1) && (nodes, tpn) != (17, 1);
            assert_eq!(landed > 0, lands, "{what}: landed {landed} gathers");
        }
    }
}

/// The rooted calls the wire-rank rule covers, at every root: broadcasts
/// up to the small/large switch (one chunk, pipelined, the largest),
/// scatters of one and of several pieces per node, and reduces of one
/// and of three chunks.
fn rooted_shapes(n: usize) -> Vec<Shape> {
    let (t, chunk) = (SrmTuning::default(), SrmTuning::REDUCE_CHUNK);
    let calls = [
        (Op::Bcast, [8, 4 << 10, 24 << 10, t.small_large_switch]),
        (Op::Scatter, [8, 512, 4 << 10, 24 << 10]),
        (Op::Reduce, [8, 4 << 10, chunk, 3 * chunk - 8]),
    ];
    let mut out = Vec::new();
    for root in 0..n {
        for (op, lens) in calls {
            out.extend(lens.map(|len| op.shape(len, root, n)));
        }
    }
    out
}

/// The golden lattice's worlds (1×4, 2×3, 3×2, 4×4), each whole and
/// split by rank parity, as `(description, members)`.
fn lattice() -> Vec<(String, Vec<SrmComm>)> {
    let mut out = Vec::new();
    for (nodes, tpn) in [(1, 4), (2, 3), (3, 2), (4, 4)] {
        let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
        let topo = Topology::new(nodes, tpn);
        let world = SrmWorld::new(&mut sim, topo, SrmTuning::default());
        let n = topo.nprocs();
        out.push((
            format!("{nodes}x{tpn} world"),
            (0..n).map(|r| world.comm(r)).collect(),
        ));
        let colors: Vec<i64> = (0..n as i64).map(|r| r % 2).collect();
        let subs = world.comm_split(&colors, &vec![0; n]);
        for parity in 0..2 {
            let members = (subs.iter().flatten())
                .filter(|c| c.rank() % 2 == parity)
                .cloned()
                .collect();
            out.push((format!("{nodes}x{tpn} split {parity}"), members));
        }
    }
    out
}

/// Every member's plan of every rooted shape on every lattice world, as
/// `(description, member, root, plan)` to `check`.
fn check_rooted(check: impl Fn(&str, &SrmComm, usize, &Plan)) {
    for (what, members) in lattice() {
        for shape in rooted_shapes(members.len()) {
            let root = shape.root().expect("a rooted shape");
            for comm in &members {
                let plan = comm.build_plan(&comm.key(shape.clone()));
                let what = format!("{what}, {shape:?}, comm rank {}", comm.comm_rank());
                check(&what, comm, root, &plan);
            }
        }
    }
}

/// The target of a put step, if `step` is one.
fn put_target(step: &Step) -> Option<usize> {
    match *step {
        Step::RmaPut { to, .. } | Step::CounterPut { to, .. } => Some(to),
        _ => None,
    }
}

#[test]
fn on_the_roots_node_only_the_root_puts_or_is_put_to() {
    check_rooted(|what, comm, root, plan| {
        let group = comm.group();
        let node_of = |c: usize| group.coord_of(c).0;
        let me = comm.comm_rank();
        for step in &plan.steps {
            let Some(to) = put_target(step) else {
                continue;
            };
            let to = group.comm_rank_of(to).expect("a member");
            if node_of(me) == node_of(root) {
                let broken = format!("{what}: puts from the root's node past the root");
                assert_eq!(me, root, "{broken}: {step:?}");
            }
            if node_of(to) == node_of(root) {
                let broken = format!("{what}: puts to the root's node past the root");
                assert_eq!(to, root, "{broken}: {step:?}");
            }
        }
    });
}

#[test]
fn credits_go_back_to_the_sender_and_puts_land_at_the_receiver() {
    check_rooted(|what, comm, _, plan| {
        let ranks = comm.group().ranks();
        for step in &plan.steps {
            match *step {
                Step::CounterPut {
                    to,
                    ctr: CtrRef::Free(c),
                } => assert_eq!(to, ranks[c.src], "{what}: credit past its sender: {step:?}"),
                Step::RmaPut {
                    to,
                    dst: BufRef::Chan(c),
                    ..
                } => assert_eq!(to, ranks[c.dst], "{what}: put past its receiver: {step:?}"),
                _ => {}
            }
        }
    });
}

/// Every flag raise names a sequence target and every flag wait waits
/// to reach a value; true if the plan raised or waited on a flag.
fn flags_count_up(what: &str, _: &SrmComm, plan: &Plan) -> bool {
    let mut flagged = false;
    for step in &plan.steps {
        match *step {
            Step::FlagRaise { val, .. } => {
                let up = matches!(val, Val::Seq { .. });
                assert!(up, "{what}: raises a flag to a literal: {step:?}");
                flagged = true;
            }
            Step::Wait {
                cell: WaitCell::Flag(_),
                until,
                ..
            } => {
                let up = matches!(until, Until::Ge(_) | Until::SideDrained { .. });
                assert!(
                    up,
                    "{what}: waits for a flag to equal a value, not reach it: {step:?}"
                );
                flagged = true;
            }
            _ => {}
        }
    }
    flagged
}

#[test]
fn flags_only_count_up() {
    check_worlds(flags_count_up);
}
