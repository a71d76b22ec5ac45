//! Spans and step-class attribution from a traced world.
//!
//! The library's `Trace` is a flat log of `(lp, time, label)` events;
//! with `SrmTuning::trace_steps` the engine logs one `step:*` event as
//! each plan step *starts*. The benchmark's rank closures add
//! `bench:call-begin` / `bench:call-end` around every call. From those
//! two sources this module builds, per rank, the nesting
//! `world > phase > call > step` on the virtual timeline, and charges
//! each interval between consecutive step events to the class of the
//! step that started it. Within a call the classes sum to the call's
//! duration exactly (integer picoseconds), so the shares sum to one.
//!
//! What this cannot show: the last rank to finish is a leaf that mostly
//! waits, and *whom* it waits for needs wait→raise edges recorded
//! inside the library (ROADMAP item 5). The shares say where virtual
//! time went on each rank, not which rank's time was critical.

use crate::world::{TraceData, CALL_BEGIN, CALL_END, PHASES};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Step classes, in metric-name order.
pub const CLASSES: [&str; 7] = [
    "copy",
    "reduce",
    "flag_wait",
    "put",
    "counter_wait",
    "addr",
    "other",
];
const OTHER: usize = 6;

/// Class of the interval a `step:*` (or `bench:*`) event starts.
fn class_of(label: &str) -> usize {
    match label {
        "step:shm-copy" | "step:load-acc" => 0,
        "step:local-reduce" => 1,
        "step:flag-wait"
        | "step:drain-wait"
        | "step:pair-wait-free"
        | "step:pair-wait-published"
        | "step:pair-wait-drained"
        | "step:pair-catch-up" => 2,
        "step:rma-put" | "step:counter-put" => 3,
        "step:counter-wait" | "step:credit-wait" => 4,
        "step:addr-send" | "step:addr-take" | "step:board-addr-put" | "step:board-addr-take" => 5,
        _ => OTHER,
    }
}

/// Span kinds, outermost first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    World,
    Phase,
    Call,
    Step,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::World => "world",
            Kind::Phase => "phase",
            Kind::Call => "call",
            Kind::Step => "step",
        }
    }
}

/// One span on the virtual timeline.
#[derive(Clone, Debug)]
pub struct Span {
    pub kind: Kind,
    pub name: &'static str,
    /// The span that caused this one (its enclosing span's name).
    pub parent: &'static str,
    /// World (shape) index.
    pub pid: usize,
    /// Rank.
    pub tid: usize,
    pub start_ps: u64,
    pub dur_ps: u64,
    /// Call id shared by a call and its steps (0 = warm-up).
    pub call: Option<usize>,
    /// Call spans: host nanoseconds since the world began at the
    /// call's end.
    pub host_ns: Option<u64>,
}

/// What one traced world contributes to the metrics.
#[derive(Default)]
pub struct Analysis {
    /// Virtual picoseconds per class over the timed calls, all ranks.
    pub class_ps: [u64; 7],
    /// The same on the root rank only.
    pub class_ps_root: [u64; 7],
    /// Largest |sum of classes - elapsed| / elapsed over the ranks.
    pub worst_sum_error: f64,
    /// Events the library and the benchmark logged in this world.
    pub events: usize,
    /// Per timed call: last rank's finish minus first rank's start.
    pub latencies_ps: Vec<u64>,
    /// Per timed call: last finish minus first finish over the ranks.
    pub finish_skew_ps: Vec<u64>,
    /// Self time of the timed calls: their duration minus what their
    /// step spans cover (the time before the first step, and the
    /// benchmark's own compute slices).
    pub call_self_ps: u64,
    /// Self time of the timed phase: its duration on every rank minus
    /// what the call spans cover (idling at the closing gate).
    pub phase_self_ps: u64,
    pub spans: Vec<Span>,
}

/// Build spans and attribution for one traced world. Step spans are
/// kept only for calls `0..=keep_step_calls` (the file for a 64-rank
/// 1 MB allreduce would otherwise run to hundreds of megabytes); the
/// attribution uses every step.
pub fn analyse(
    data: &TraceData,
    shape_name: &'static str,
    pid: usize,
    root: usize,
    timed_calls: usize,
    keep_step_calls: usize,
) -> Analysis {
    let nranks = data.lp_of_rank.len();
    let mut out = Analysis {
        events: data.events.len(),
        ..Analysis::default()
    };

    // Per-LP event lists in program order (the log is in recording
    // order, which per LP is program order).
    let max_lp = data.events.iter().map(|e| e.lp).max().unwrap_or(0);
    let mut by_lp: Vec<Vec<(u64, &'static str)>> = vec![Vec::new(); max_lp + 1];
    for e in &data.events {
        by_lp[e.lp].push((e.at.as_ps(), e.label));
    }

    let world_end = data
        .phase_marks
        .iter()
        .map(|m| m[4].as_ps())
        .max()
        .unwrap_or(0);
    out.spans.push(Span {
        kind: Kind::World,
        name: shape_name,
        parent: "",
        pid,
        tid: 0,
        start_ps: 0,
        dur_ps: world_end,
        call: None,
        host_ns: None,
    });

    // Per call id: (first start, first finish, last finish) over ranks.
    let mut extent: Vec<(u64, u64, u64)> = vec![(u64::MAX, u64::MAX, 0); timed_calls + 1];
    for rank in 0..nranks {
        let marks = &data.phase_marks[rank];
        for (i, name) in PHASES.iter().enumerate() {
            let start = if i == 0 { 0 } else { marks[i - 1].as_ps() };
            out.spans.push(Span {
                kind: Kind::Phase,
                name,
                parent: shape_name,
                pid,
                tid: rank,
                start_ps: start,
                dur_ps: marks[i].as_ps() - start,
                call: None,
                host_ns: None,
            });
        }

        let events = by_lp.get(data.lp_of_rank[rank]).map_or(&[][..], |v| &v[..]);
        let mut stamps = data.stamps[rank].iter();
        let mut rank_class = [0u64; 7];
        let mut rank_elapsed = 0u64;
        // Inside a call: (stamp, class of the open interval, its start,
        // name of the open step).
        let mut open: Option<(&crate::world::CallStamp, usize, u64, &'static str)> = None;
        for &(at, label) in events {
            if label == CALL_BEGIN {
                let stamp = stamps.next().expect("one stamp per call-begin marker");
                open = Some((stamp, OTHER, at, ""));
                continue;
            }
            let Some((stamp, class, since, step)) = open else {
                continue;
            };
            let is_boundary =
                label == CALL_END || label.starts_with("step:") || label.starts_with("bench:");
            if !is_boundary {
                continue;
            }
            // Close the open interval.
            let timed = (1..=timed_calls).contains(&stamp.call);
            if timed {
                rank_class[class] += at - since;
                if !step.starts_with("step:") {
                    out.call_self_ps += at - since;
                }
            }
            if step.starts_with("step:") && stamp.call <= keep_step_calls {
                out.spans.push(Span {
                    kind: Kind::Step,
                    name: step,
                    parent: "call",
                    pid,
                    tid: rank,
                    start_ps: since,
                    dur_ps: at - since,
                    call: Some(stamp.call),
                    host_ns: None,
                });
            }
            if label == CALL_END {
                let (start, end) = (stamp.start.as_ps(), stamp.end.as_ps());
                out.spans.push(Span {
                    kind: Kind::Call,
                    name: "call",
                    parent: phase_of(stamp.call, timed_calls),
                    pid,
                    tid: rank,
                    start_ps: start,
                    dur_ps: end - start,
                    call: Some(stamp.call),
                    host_ns: Some(stamp.host_ns),
                });
                if timed {
                    rank_elapsed += end - start;
                    let e = &mut extent[stamp.call];
                    *e = (e.0.min(start), e.1.min(end), e.2.max(end));
                }
                open = None;
            } else {
                open = Some((stamp, class_of(label), at, label));
            }
        }
        out.phase_self_ps += (marks[2].as_ps() - marks[1].as_ps()).saturating_sub(rank_elapsed);
        if rank_elapsed > 0 {
            let sum: u64 = rank_class.iter().sum();
            let err = (sum as f64 - rank_elapsed as f64).abs() / rank_elapsed as f64;
            out.worst_sum_error = out.worst_sum_error.max(err);
        }
        for (c, ps) in rank_class.iter().enumerate() {
            out.class_ps[c] += ps;
            if rank == root {
                out.class_ps_root[c] += ps;
            }
        }
    }
    let seen = || extent[1..].iter().filter(|e| e.0 != u64::MAX);
    out.latencies_ps = seen().map(|e| e.2 - e.0).collect();
    out.finish_skew_ps = seen().map(|e| e.2 - e.1).collect();
    out
}

/// The phase a call id belongs to.
fn phase_of(call: usize, timed_calls: usize) -> &'static str {
    if call == 0 {
        PHASES[1]
    } else if call <= timed_calls {
        PHASES[2]
    } else {
        PHASES[3]
    }
}

/// Write spans as Chrome trace-event JSON (`ts`/`dur` in virtual
/// microseconds; pid = world, tid = rank).
pub fn write_chrome(path: &Path, names: &[&str], spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(File::create(path)?);
    write!(w, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    let mut first = true;
    let mut sep = |w: &mut BufWriter<File>| -> io::Result<()> {
        if !first {
            w.write_all(b",\n")?;
        }
        first = false;
        Ok(())
    };
    for (pid, name) in names.iter().enumerate() {
        sep(&mut w)?;
        write!(
            w,
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"args\":{{\"name\":\"{name}\"}}}}"
        )?;
    }
    for s in spans {
        sep(&mut w)?;
        write!(
            w,
            "{{\"ph\":\"X\",\"cat\":\"{}\",\"name\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"parent\":\"{}\"",
            s.kind.as_str(),
            s.name,
            s.pid,
            s.tid,
            s.start_ps as f64 / 1e6,
            s.dur_ps as f64 / 1e6,
            s.parent,
        )?;
        if let Some(c) = s.call {
            write!(w, ",\"call\":{c}")?;
        }
        if let Some(h) = s.host_ns {
            write!(w, ",\"host_ns\":{h}")?;
        }
        w.write_all(b"}}")?;
    }
    w.write_all(b"]}\n")?;
    w.flush()
}
