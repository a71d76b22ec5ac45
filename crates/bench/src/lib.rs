//! The paper's figures as data.
//!
//! Every figure and table of the evaluation is a list of [`Series`] in
//! one registry ([`figures`]): machine profile, implementations,
//! `SrmTuning`, op, topologies, sizes and iteration rule. The `figures`
//! binary measures each distinct point of the registry once into
//! `FIGS.json` — one [`Key`] per line, virtual time in integer
//! picoseconds, and for SRM points of the ops `SrmModel` covers the
//! model's prediction — and prints every table from that file alone.
//! Virtual time is deterministic, so `figures check` re-measures and
//! compares exactly.
//!
//! Environment (the binaries that run programs of their own):
//! * `SRM_BENCH_FAST=1` — coarse grid; used by CI's smoke run.

mod figures;

pub use figures::{figures, Figure};

use simnet::{MachineConfig, SimTime, Topology};
use srm::{SrmModel, SrmTuning};
use srm_cluster::{measure, HarnessOpts, Impl, Op};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Is the fast (coarse) grid requested?
pub fn fast_mode() -> bool {
    std::env::var("SRM_BENCH_FAST")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Message-size grid of Figures 6–11: powers of four from 8 B to 8 MB.
pub fn size_grid() -> Vec<usize> {
    (0..11).map(|i| 8usize << (2 * i)).collect()
}

/// Processor-count grid: 16-way nodes, like the paper's runs.
pub fn proc_grid() -> Vec<Topology> {
    [1, 2, 4, 8, 16].map(Topology::sp_16way).to_vec()
}

/// Iterations appropriate for a payload size (big messages are slow to
/// simulate and self-average well).
pub fn iters_for(len: usize) -> usize {
    if len <= 64 << 10 {
        5
    } else if len <= 1 << 20 {
        3
    } else {
        2
    }
}

/// The machine profiles a point may run on.
fn machine(name: &str) -> MachineConfig {
    match name {
        "sp" => MachineConfig::ibm_sp_colony(),
        // Spin-then-yield off: pure spinning (A6).
        "sp-spin" => MachineConfig {
            yield_enabled: false,
            ..MachineConfig::ibm_sp_colony()
        },
        "via" => MachineConfig::commodity_via_cluster(),
        _ => panic!("no machine profile {name}"),
    }
}

/// Measured calls per point of `(topology, bytes)`.
pub type Iters = fn(Topology, usize) -> usize;

/// One series: `imps × topos × sizes` (where `fits`) of `op` under one
/// machine profile and one tuning.
#[derive(Clone, Debug)]
pub struct Series {
    /// Machine profile: `sp` (the paper's), `sp-spin` or `via`.
    pub machine: &'static str,
    /// Implementations measured.
    pub imps: &'static [Impl],
    /// SRM tuning (ignored by the MPI baselines).
    pub tuning: SrmTuning,
    /// The collective.
    pub op: Op,
    /// Cluster shapes.
    pub topos: Vec<Topology>,
    /// Payload bytes (per-rank or per-pair segments for the segmented
    /// and pairwise ops).
    pub sizes: Vec<usize>,
    /// Which (topology, size) pairs the series keeps.
    pub fits: fn(Topology, usize) -> bool,
    /// Iteration rule.
    pub iters: Iters,
}

/// `op` on the SP under the default tuning, every implementation,
/// [`iters_for`] the payload.
pub fn series(op: Op, topos: Vec<Topology>, sizes: &[usize]) -> Series {
    Series {
        machine: "sp",
        imps: &Impl::ALL,
        tuning: SrmTuning::default(),
        op,
        topos,
        sizes: sizes.to_vec(),
        fits: |_, _| true,
        iters: |_, len| iters_for(len),
    }
}

impl Series {
    /// Only SRM, under `tuning`.
    pub fn srm(mut self, tuning: SrmTuning) -> Series {
        (self.imps, self.tuning) = (&Impl::ALL[..1], tuning);
        self
    }

    /// On another machine profile.
    pub fn on(mut self, machine: &'static str) -> Series {
        self.machine = machine;
        self
    }

    /// Keeping only the points `fits` admits.
    pub fn fits(mut self, fits: fn(Topology, usize) -> bool) -> Series {
        self.fits = fits;
        self
    }

    /// With `iters` measured calls per point.
    pub fn iters(mut self, iters: Iters) -> Series {
        self.iters = iters;
        self
    }

    /// The points the series measures.
    pub fn points(&self) -> impl Iterator<Item = (Topology, usize)> + '_ {
        let each = |&t| self.sizes.iter().map(move |&l| (t, l));
        let points = self.topos.iter().flat_map(each);
        points.filter(|&(t, l)| (self.fits)(t, l))
    }

    fn key(&self, imp: Impl, topo: Topology, len: usize) -> Key {
        Key {
            op: self.op,
            machine: self.machine.into(),
            tuning: tuning_label(&self.tuning),
            shape: (topo.nodes(), topo.tasks_per_node()),
            len,
            iters: (self.iters)(topo, len),
            imp: Impl::ALL.iter().position(|&i| i == imp).expect("known"),
        }
    }

    /// The measured point of `(imp, topo, len)`; `None` where the series
    /// does not measure it.
    ///
    /// # Panics
    /// If the series measures the point and `figs` lacks it: a registry
    /// change `figures run` has not measured yet.
    pub fn get<'f>(&self, f: &'f Figs, imp: Impl, t: Topology, len: usize) -> Option<&'f Value> {
        if !self.imps.contains(&imp) || !self.points().any(|p| p == (t, len)) {
            return None;
        }
        let key = self.key(imp, t, len);
        let lacks = || panic!("FIGS.json lacks {key:?}: rerun `figures run`");
        Some(f.get(&key).unwrap_or_else(lacks))
    }

    /// [`Series::get`]'s virtual µs per call.
    pub fn us(&self, f: &Figs, imp: Impl, t: Topology, len: usize) -> Option<f64> {
        self.get(f, imp, t, len).map(|v| v.ps as f64 / 1e6)
    }
}

/// The settings that differ from the default, `default` if none: two
/// series that build the same tuning share their points. Read off
/// `SrmTuning`'s derived `Debug`, so every field counts; no field's
/// value prints a `, `.
fn tuning_label(t: &SrmTuning) -> String {
    let fields = |t: &SrmTuning| {
        let debug = format!("{t:?}").replace(": ", "=");
        let debug = debug.replace(&usize::MAX.to_string(), "max");
        let body = debug
            .trim_start_matches("SrmTuning { ")
            .trim_end_matches(" }");
        body.split(", ").map(String::from).collect::<Vec<_>>()
    };
    let default = fields(&SrmTuning::default());
    let changed: Vec<String> = fields(t)
        .into_iter()
        .filter(|f| !default.contains(f))
        .collect();
    if changed.is_empty() {
        return "default".into();
    }
    changed.join(" ")
}

/// Identity of one measured point; `FIGS.json` is sorted by it.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    op: Op,
    machine: String,
    tuning: String,
    shape: (usize, usize),
    len: usize,
    iters: usize,
    imp: usize,
}

/// What a point measured.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Value {
    /// Virtual picoseconds per call.
    pub ps: u64,
    /// `SrmModel`'s prediction, picoseconds (SRM points of the ops the
    /// model covers).
    pub model_ps: Option<u64>,
    /// The plan `SrmModel` picks (SRM broadcast, reduce and allreduce).
    pub plan: Option<String>,
}

/// Measured points by key: the contents of `FIGS.json`.
pub type Figs = BTreeMap<Key, Value>;

/// Measure one point, and ask the model about it.
fn run(s: &Series, imp: Impl, topo: Topology, len: usize, iters: usize) -> Value {
    let opts = HarnessOpts {
        iters,
        srm: s.tuning,
    };
    let per_call = measure(imp, machine(s.machine), topo, s.op, len, opts).per_call;
    let value = |model: Option<SimTime>, plan| Value {
        ps: per_call.as_ps(),
        model_ps: model.map(SimTime::as_ps),
        plan,
    };
    if imp != Impl::Srm {
        return value(None, None);
    }
    let m = SrmModel::new(machine(s.machine), topo, s.tuning);
    let trees = |op| {
        let t = m.trees(op, len);
        format!("{:?} / {:?}", t.inter, t.intra)
    };
    let (reduce, bcast) = (trees(Op::Reduce), trees(Op::Bcast));
    let allreduce = match () {
        _ if m.allreduce_composes(len) => format!("reduce {reduce} then bcast {bcast}"),
        _ if len <= SrmTuning::REDUCE_CHUNK => "recursive doubling".into(),
        _ => format!("four-stage {}", trees(Op::Allreduce)),
    };
    match s.op {
        Op::Bcast => value(Some(m.bcast(len)), Some(bcast)),
        Op::Reduce => value(Some(m.reduce(len)), Some(reduce)),
        Op::Allreduce => value(Some(m.allreduce(len)), Some(allreduce)),
        Op::Barrier => value(Some(m.barrier()), None),
        Op::Gather => value(Some(m.gather(len)), None),
        Op::Allgather => value(Some(m.allgather(len)), None),
        Op::Alltoall => value(Some(m.alltoall(len)), None),
        Op::ReduceScatter => value(Some(m.reduce_scatter(len)), None),
        Op::Scatter | Op::Alltoallv => value(None, None),
    }
}

/// User-buffer bytes the points measured at once may hold together; a
/// larger point runs alone. A point's resident memory is up to four
/// times its user buffers: the 16×16 IBM allreduce of 8 MB (2 GiB of
/// buffers) and the 16×16 MPI gathers of 64 KB segments (4 GiB) peak at
/// 8.4 GB.
const BUFFER_BUDGET: usize = 1 << 30;

/// Gives a point's buffer bytes back to the budget when it ends, also
/// by panicking, so the other threads do not wait for it forever.
struct Held<'a>(&'a Mutex<usize>, &'a Condvar, usize);

impl Drop for Held<'_> {
    fn drop(&mut self) {
        if let Ok(mut held) = self.0.lock() {
            *held -= self.2;
        }
        self.1.notify_all();
    }
}

/// Measure every distinct point of the registry once, on `threads` host
/// threads (each point is its own `Sim`), largest first.
pub fn measure_all(threads: usize) -> Figs {
    let series: Vec<Series> = figures().into_iter().flat_map(|f| f.series).collect();
    let mut jobs = BTreeMap::new();
    for s in &series {
        for (topo, len) in s.points() {
            for &imp in s.imps {
                jobs.insert(s.key(imp, topo, len), (s, imp, topo, len));
            }
        }
    }
    let mut jobs: Vec<_> = jobs.into_iter().collect();
    let cost = |k: &Key| k.shape.0 * k.shape.1 * k.len.max(1 << 10) * (k.iters + 1);
    jobs.sort_by_key(|(k, _)| std::cmp::Reverse(cost(k)));
    let (next, out) = (AtomicUsize::new(0), Mutex::new(Figs::new()));
    let (held, freed) = (Mutex::new(0), Condvar::new());
    let poisoned = "no measuring thread panicked";
    let work = || {
        while let Some((key, job)) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
            let &(s, imp, topo, len) = job;
            let n = topo.nprocs();
            let bytes = n * s.op.shape(len, 0, n).extent(n);
            let h = held.lock().expect(poisoned);
            let over = |h: &mut usize| *h > 0 && *h + bytes > BUFFER_BUDGET;
            *freed.wait_while(h, over).expect(poisoned) += bytes;
            let _release = Held(&held, &freed, bytes);
            let wall = std::time::Instant::now();
            let value = run(s, imp, topo, len, key.iters);
            eprintln!(
                "[run] {key:?} -> {} ps (wall {:.1?})",
                value.ps,
                wall.elapsed()
            );
            out.lock().expect(poisoned).insert(key.clone(), value);
        }
    };
    std::thread::scope(|scope| (0..threads.max(1)).for_each(|_| drop(scope.spawn(work))));
    out.into_inner().expect(poisoned)
}

/// Every point where `new` differs from `old`, one line each.
pub fn diff(old: &Figs, new: &Figs) -> Vec<String> {
    let keys: BTreeSet<&Key> = old.keys().chain(new.keys()).collect();
    let differs = keys.into_iter().filter(|k| old.get(k) != new.get(k));
    let line = |k| format!("{k:?}: {:?} -> {:?}", old.get(k), new.get(k));
    differs.map(line).collect()
}

const IMPLS: [&str; 3] = ["srm", "ibm", "mpich"];

/// `FIGS.json`: a JSON array, one flat object per point, sorted by key.
pub fn to_json(figs: &Figs) -> String {
    let line = |(k, v): (&Key, &Value)| {
        let (op, imp, (nodes, tpn)) = (k.op.as_str(), IMPLS[k.imp], k.shape);
        let (m, t, len, iters, ps) = (&k.machine, &k.tuning, k.len, k.iters, v.ps);
        let model = v.model_ps.map(|ps| format!(r#","model_ps":{ps}"#));
        let plan = v.plan.as_ref().map(|p| format!(r#","plan":"{p}""#));
        let (model, plan) = (model.unwrap_or_default(), plan.unwrap_or_default());
        format!(
            r#"{{"op":"{op}","machine":"{m}","tuning":"{t}","nodes":{nodes},"tpn":{tpn},"len":{len},"iters":{iters},"impl":"{imp}","ps":{ps}{model}{plan}}}"#
        )
    };
    let lines: Vec<String> = figs.iter().map(line).collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

/// Parse what [`to_json`] wrote.
pub fn from_json(text: &str) -> Result<Figs, String> {
    let body = text
        .trim()
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'));
    let lines = body.ok_or("not a JSON array")?.lines().map(str::trim);
    let parse = |(i, l)| parse_point(l).ok_or(format!("point {}: malformed", i + 1));
    lines
        .filter(|l| !l.is_empty())
        .enumerate()
        .map(parse)
        .collect()
}

/// One line of `FIGS.json`: a flat object whose strings hold no `"`,
/// `,`, `:` or escapes.
fn parse_point(line: &str) -> Option<(Key, Value)> {
    let body = line
        .trim_end_matches(',')
        .strip_prefix('{')?
        .strip_suffix('}')?;
    let fields: Option<Vec<_>> = body.split(',').map(|f| f.split_once(':')).collect();
    let fields = fields?;
    let find = |name: &str| fields.iter().find(|f| f.0.trim_matches('"') == name);
    let get = |name: &str| find(name).map(|f| f.1.trim_matches('"'));
    let num = |name| get(name)?.parse().ok();
    let key = Key {
        op: Op::from_name(get("op")?)?,
        machine: get("machine")?.into(),
        tuning: get("tuning")?.into(),
        shape: (num("nodes")?, num("tpn")?),
        len: num("len")?,
        iters: num("iters")?,
        imp: IMPLS.iter().position(|&i| Some(i) == get("impl"))?,
    };
    let ps = |name| get(name).and_then(|v| v.parse().ok());
    let (model_ps, plan) = (ps("model_ps"), get("plan").map(String::from));
    Some((
        key,
        Value {
            ps: ps("ps")?,
            model_ps,
            plan,
        },
    ))
}

/// The named figures, printed from `figs` alone.
pub fn render(names: &[&str], figs: &Figs) -> Result<String, String> {
    let all = figures();
    let find = |name: &&str| all.iter().find(|f| f.name == *name);
    let one = |n| {
        find(n)
            .map(|f| (f.render)(&f.series, figs))
            .ok_or(format!("no figure {n}"))
    };
    Ok(names
        .iter()
        .map(one)
        .collect::<Result<Vec<_>, _>>()?
        .join("\n"))
}

/// Opens a generated block in a markdown file: this, the figure names,
/// ` -->`, a fenced block, then [`END`].
const MARK: &str = "<!-- figures print ";
const END: &str = "<!-- end figures -->";

/// `doc` with every marked block refilled from `figs`.
pub fn fill_marked(doc: &str, figs: &Figs) -> Result<String, String> {
    let mut parts = doc.split(MARK);
    let mut out = parts.next().unwrap_or_default().to_string();
    for part in parts {
        let (names, rest) = part.split_once(" -->\n").ok_or("unterminated mark")?;
        let (_, rest) = rest
            .split_once(END)
            .ok_or(format!("no `{END}` after {names}"))?;
        let block = render(&names.split_whitespace().collect::<Vec<_>>(), figs)?;
        out += &format!("{MARK}{names} -->\n```text\n{block}```\n{END}{rest}");
    }
    Ok(out)
}

/// Improvement band `(min%, max%)` of SRM over `base` across a series:
/// `100 - T_SRM/T_base × 100`, "SRM outperforms by X%".
pub fn improvement_band(s: &Series, f: &Figs, base: Impl) -> (f64, f64) {
    let ratio = |(t, l)| Some(s.us(f, Impl::Srm, t, l)? / s.us(f, base, t, l)?);
    let impr = s.points().filter_map(ratio).map(|r| 100.0 - 100.0 * r);
    impr.fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(x), hi.max(x)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_are_sane() {
        let sizes = size_grid();
        assert!(sizes.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*sizes.first().unwrap(), 8);
        assert_eq!(*sizes.last().unwrap(), 8 << 20);
        assert!(proc_grid().iter().all(|t| t.tasks_per_node() == 16));
    }

    #[test]
    fn iters_scale_down_with_size() {
        assert!(iters_for(8) >= iters_for(1 << 20));
        assert!(iters_for(1 << 20) >= iters_for(8 << 20));
    }

    /// Two sizes on one node, SRM at 20 and 50 µs against IBM's 80 and
    /// 100: SRM outperforms by 50–75 %. The points survive `FIGS.json`,
    /// and a tuning equal to the default is the default's point.
    #[test]
    fn improvement_band_math() {
        let topo = Topology::new(1, 16);
        let s = series(Op::Reduce, vec![topo], &[8, 64]);
        let mut figs = Figs::new();
        let points = [
            (Impl::Srm, 8, 20),
            (Impl::IbmMpi, 8, 80),
            (Impl::Srm, 64, 50),
        ];
        for (imp, len, us) in points.into_iter().chain([(Impl::IbmMpi, 64, 100)]) {
            let plan = (imp == Impl::Srm).then(|| "Chain / HungBinary".to_string());
            let value = Value {
                ps: us * 1_000_000,
                model_ps: Some(7),
                plan,
            };
            figs.insert(s.key(imp, topo, len), value);
        }
        assert_eq!(improvement_band(&s, &figs, Impl::IbmMpi), (50.0, 75.0));
        assert_eq!(from_json(&to_json(&figs)), Ok(figs.clone()));
        let mut same = s.clone().srm(SrmTuning::default());
        same.tuning.pipeline_chunk = 4096;
        assert_eq!(same.us(&figs, Impl::Srm, topo, 8), Some(20.0));
        assert_eq!(same.us(&figs, Impl::IbmMpi, topo, 8), None);
        same.tuning.pipeline_chunk = 8192;
        assert_eq!(tuning_label(&same.tuning), "pipeline_chunk=8192");
    }
}
