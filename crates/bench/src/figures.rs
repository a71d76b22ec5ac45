//! The registry: every figure and table of the evaluation, each a list
//! of series and the function that prints it from measured points.

use crate::{improvement_band, iters_for, proc_grid, series, size_grid, Figs, Series};
use simnet::Topology;
use srm::{SrmTuning, TreeKind};
use srm_cluster::{Impl, Op};

/// One figure or table: what it measures and how it prints.
pub struct Figure {
    /// The name `figures print` takes.
    pub name: &'static str,
    /// Its series; figures that share a point share its measurement.
    pub series: Vec<Series>,
    pub(crate) render: fn(&[Series], &Figs) -> String,
}

fn sp(nodes: &[usize]) -> Vec<Topology> {
    nodes.iter().map(|&n| Topology::sp_16way(n)).collect()
}

/// The paper's largest processor count: sixteen 16-way nodes.
fn p256() -> Topology {
    Topology::sp_16way(16)
}

/// The default tuning with one setting changed.
fn tuned(set: impl FnOnce(&mut SrmTuning)) -> SrmTuning {
    let mut t = SrmTuning::default();
    set(&mut t);
    t
}

/// SRM alone on P=256 under `t`, five calls a point.
fn at256(op: Op, sizes: &[usize], t: SrmTuning) -> Series {
    series(op, vec![p256()], sizes).srm(t).iters(|_, _| 5)
}

/// Each rank's working set within 512 KB: pairwise traffic grows as
/// `nprocs² × len`.
fn capped(t: Topology, len: usize) -> bool {
    t.nprocs() * len <= 512 << 10
}

/// Every figure, in the order EXPERIMENTS.md presents them.
pub fn figures() -> Vec<Figure> {
    let d = SrmTuning::default;
    let [bcast, reduce, allreduce] =
        [Op::Bcast, Op::Reduce, Op::Allreduce].map(|op| series(op, proc_grid(), &size_grid()));
    let barrier = sp(&[1, 2, 3, 4, 6, 8, 12, 16, 32, 64, 128, 256]);
    let barrier = series(Op::Barrier, barrier, &[8]).iters(|_, _| 8);
    let model_ops: [(_, &[usize]); 4] = [
        (Op::Bcast, &[512, 8 << 10, 64 << 10, 1 << 20]),
        (Op::Reduce, &[512, 64 << 10, 1 << 20]),
        (Op::Allreduce, &[512, 64 << 10, 256 << 10, 1 << 20]),
        (Op::Barrier, &[8]),
    ];
    let mut model: Vec<_> = model_ops
        .map(|(op, l)| series(op, sp(&[2, 4, 16]), l).srm(d()))
        .into();
    // The alltoall shapes `tests/model_accuracy.rs` holds to 1.8.
    let a2a = [
        (4, 4, 16),
        (4, 4, 256),
        (1, 16, 16),
        (4, 16, 16),
        (16, 4, 4),
    ];
    model.extend(
        a2a.map(|(n, p, kb)| series(Op::Alltoall, vec![Topology::new(n, p)], &[kb << 10]).srm(d())),
    );
    let total: crate::Iters = |t, len| iters_for(len * t.nprocs());
    // The allgather moves `nprocs ×` the gathered buffer again on its
    // node leg: its grid stops one notch lower.
    let segmented = [(Op::Gather, 6), (Op::Scatter, 6), (Op::Allgather, 5)].map(|(op, n)| {
        series(
            op,
            proc_grid(),
            &[8, 128, 2 << 10, 8 << 10, 16 << 10, 64 << 10][..n],
        )
        .iters(total)
    });
    let pairwise = [Op::Alltoall, Op::ReduceScatter].map(|op| {
        let sizes = [8, 128, 512, 2 << 10, 4 << 10, 16 << 10, 64 << 10];
        series(op, proc_grid(), &sizes).fits(capped).iters(total)
    });
    let routes = [usize::MAX, 0, d().pairwise_direct_min].map(|min| {
        let topos = [(4, 4), (4, 16), (16, 4), (16, 16)].map(|(n, p)| Topology::new(n, p));
        let sizes = [8, 512, 4 << 10, 16 << 10, 64 << 10, 256 << 10];
        let s = series(Op::ReduceScatter, topos.into(), &sizes).iters(total);
        // Every rank holds `nprocs` segments: stop at 1 GiB in all.
        let s = s.fits(|t, l| t.nprocs() * t.nprocs() * l <= 1 << 30);
        s.srm(tuned(|t| t.pairwise_direct_min = min))
    });
    let trees = [Op::Bcast, Op::Reduce].into_iter().flat_map(|op| {
        let kinds = TreeKind::ALL.map(Some).into_iter().chain([None]);
        let sizes = [8, 4096, 64 << 10, 256 << 10, 1 << 20];
        kinds
            .map(move |tree| at256(op, &sizes, tuned(|t| t.tree = tree)).iters(|_, l| iters_for(l)))
    });
    let chunks = [1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10];
    let mut pipeline: Vec<_> = chunks
        .map(|c| at256(Op::Bcast, &[16 << 10], tuned(|t| t.pipeline_chunk = c)))
        .into();
    // An empty pipelined sub-range: every small message goes as one put.
    let edge = d().small_large_switch;
    let unpipelined = tuned(|t| (t.pipeline_min, t.pipeline_max) = (edge, edge));
    pipeline.extend(
        [d(), unpipelined].map(|t| at256(Op::Bcast, &[12 << 10, 16 << 10, 24 << 10, 32 << 10], t)),
    );
    pipeline.extend([128 << 10, 32 << 10].map(|s| {
        let t = tuned(|t| t.small_large_switch = s);
        at256(Op::Bcast, &[48 << 10, 64 << 10, 96 << 10, 128 << 10], t).iters(|_, _| 3)
    }));
    let off = |max| tuned(|t| t.interrupt_disable_max = max);
    let small = [8, 512, 4096, 8 << 10];
    let mut interrupts: Vec<_> = [d(), off(0)]
        .into_iter()
        .flat_map(|t| {
            let a2a = series(Op::Alltoall, sp(&[4, 16]), &small)
                .fits(capped)
                .iters(|_, _| 5);
            [at256(Op::Bcast, &small, t), a2a.srm(t)]
        })
        .collect();
    interrupts.extend([d(), off(8 << 10), off(0)].into_iter().flat_map(|t| {
        let sizes = [64 << 10, 256 << 10, 1 << 20];
        [Op::Reduce, Op::Allreduce].map(|op| series(op, sp(&[4]), &sizes).srm(t).iters(|_, _| 5))
    }));
    let spin = ["sp", "sp-spin"].into_iter().flat_map(|m| {
        [(Op::Bcast, 4096), (Op::Reduce, 4096), (Op::Barrier, 8)]
            .map(|(op, len)| at256(op, &[len], d()).on(m))
    });
    let via_ops: [(_, &[usize]); 4] = [
        (Op::Bcast, &[64, 4096, 256 << 10]),
        (Op::Reduce, &[64, 4096, 256 << 10]),
        (Op::Allreduce, &[64, 4096, 256 << 10]),
        (Op::Barrier, &[8]),
    ];
    let via = via_ops.map(|(op, l)| series(op, vec![Topology::new(8, 8)], l).on("via"));
    let fig = |name, series, render| Figure {
        name,
        series,
        render,
    };
    let headline_series = vec![
        bcast.clone(),
        reduce.clone(),
        allreduce.clone(),
        barrier.clone(),
    ];
    vec![
        fig("headline", headline_series, headline),
        fig("fig6", vec![bcast.clone()], left_right),
        fig("fig7", vec![reduce.clone()], left_right),
        fig("fig8", vec![allreduce.clone()], left_right),
        fig("fig9", vec![bcast], ratio_figure),
        fig("fig10", vec![reduce], ratio_figure),
        fig("fig11", vec![allreduce], ratio_figure),
        fig("fig12", vec![barrier], fig12),
        fig("model", model, model_table),
        fig("segmented", segmented.into(), extra),
        fig("pairwise", pairwise.into(), extra),
        fig("route", routes.into(), route),
        fig("tree", trees.collect(), tree),
        fig("pipeline", pipeline, pipeline_tables),
        fig("interrupts", interrupts, interrupt_tables),
        fig("yield", spin.collect(), yield_table),
        fig("crossplatform", via.into(), crossplatform),
    ]
}

/// `Figure N: op`, N the paper's figure of `s`'s op plus `offset`
/// (Figures 6–8 are absolute times, 9–11 their ratios).
fn paper_figure(s: &Series, offset: usize) -> String {
    let no = [Op::Bcast, Op::Reduce, Op::Allreduce]
        .iter()
        .position(|&o| o == s.op)
        .expect("a tree op");
    format!("Figure {}: {}", 6 + no + offset, s.op.name())
}

/// A title, then right-aligned columns two spaces apart. `head` and
/// each row are `|`-separated cells.
fn table(title: &str, head: &str, rows: impl IntoIterator<Item = String>) -> String {
    let rows: Vec<String> = [head.to_string()].into_iter().chain(rows).collect();
    let cells: Vec<Vec<&str>> = rows.iter().map(|r| r.split('|').collect()).collect();
    let mut width = vec![0; cells[0].len()];
    for r in &cells {
        for (w, c) in width.iter_mut().zip(r) {
            *w = (*w).max(c.chars().count());
        }
    }
    let line = |r: &Vec<&str>| {
        let r: Vec<String> = r
            .iter()
            .zip(&width)
            .map(|(c, &w)| format!("{c:>w$}"))
            .collect();
        r.join("  ") + "\n"
    };
    format!("{title}\n{}", cells.iter().map(line).collect::<String>())
}

/// A µs cell, `-` where the series has no point.
fn us(v: Option<f64>) -> String {
    v.map_or("-".into(), |v| format!("{v:.1}"))
}

/// The SRM µs of a point every caller knows is measured.
fn at(s: &Series, f: &Figs, topo: Topology, len: usize) -> f64 {
    s.us(f, Impl::Srm, topo, len)
        .expect("the series measures it")
}

/// `bytes|P=16|P=32|…`: the head of a size × processor-count table.
fn by_procs(s: &Series) -> String {
    let procs: Vec<String> = s
        .topos
        .iter()
        .map(|t| format!("P={}", t.nprocs()))
        .collect();
    format!("bytes|{}", procs.join("|"))
}

/// Figures 6–8: the SRM time per size and processor count (left), and
/// SRM against both MPIs at the largest count up to 64 KB (right).
fn left_right(s: &[Series], f: &Figs) -> String {
    let s = &s[0];
    let row = |&len: &usize| {
        let cells: Vec<String> = s
            .topos
            .iter()
            .map(|&t| us(s.us(f, Impl::Srm, t, len)))
            .collect();
        format!("{len}|{}", cells.join("|"))
    };
    let title = paper_figure(s, 0);
    let left = table(
        &format!("{title} (left): SRM time vs message size (us)"),
        &by_procs(s),
        s.sizes.iter().map(row),
    );
    left + "\n" + &comparison(s, f, &format!("{title} (right): comparison"), 64 << 10)
}

/// Figures 9–11: the ratio tables of Figures 6–8's points.
fn ratio_figure(s: &[Series], f: &Figs) -> String {
    ratios(&s[0], f, &paper_figure(&s[0], 3))
}

/// SRM against both MPIs at the largest processor count, sizes up to
/// `max_len`.
fn comparison(s: &Series, f: &Figs, title: &str, max_len: usize) -> String {
    let p = *s.topos.last().expect("a topology");
    let rows = s.sizes.iter().filter(|&&l| l <= max_len).map(|&len| {
        let [a, b, c] = Impl::ALL.map(|imp| us(s.us(f, imp, p, len)));
        format!("{len}|{a}|{b}|{c}")
    });
    let title = format!("{title} (P={}, sizes <= {max_len} B)", p.nprocs());
    table(&title, "bytes|SRM (us)|IBM MPI (us)|MPICH (us)", rows)
}

/// Figures 9–11: `T_SRM/T_MPI × 100 %` per size and processor count, one
/// table per baseline. Values < 100 mean SRM wins.
fn ratios(s: &Series, f: &Figs, title: &str) -> String {
    let one = |base: Impl| {
        let cell = |t, len| match (s.us(f, Impl::Srm, t, len), s.us(f, base, t, len)) {
            (Some(a), Some(b)) => format!("{:.0}%", 100.0 * a / b),
            _ => "-".into(),
        };
        let row = |&len: &usize| {
            let cells: Vec<String> = s.topos.iter().map(|&t| cell(t, len)).collect();
            format!("{len}|{}", cells.join("|"))
        };
        let title = format!("{title}: T_SRM/T_{} x 100% (lower is better)", base.name());
        let (lo, hi) = improvement_band(s, f, base);
        let (rlo, rhi) = (100.0 - hi, 100.0 - lo);
        let range = format!("range: {rlo:.0}%..{rhi:.0}%  (improvement {lo:.0}%..{hi:.0}%)\n");
        table(&title, &by_procs(s), s.sizes.iter().map(row)) + &range
    };
    one(Impl::IbmMpi) + "\n" + &one(Impl::Mpich)
}

/// The abstract's claims: the improvement bands of Figures 9–11 and the
/// barrier at 256 processors.
fn headline(s: &[Series], f: &Figs) -> String {
    let mut rows = Vec::new();
    for (s, paper) in s.iter().zip(["27%-84%", "24%-79%", "30%-73%"]) {
        for (base, claim) in [
            (Impl::IbmMpi, paper),
            (Impl::Mpich, "similar or better margins"),
        ] {
            let (lo, hi) = improvement_band(s, f, base);
            rows.push(format!(
                "{}|{}|{lo:.0}%..{hi:.0}%|{claim}",
                s.op.name(),
                base.name()
            ));
        }
    }
    let [srm, ibm] =
        [Impl::Srm, Impl::IbmMpi].map(|imp| s[3].us(f, imp, p256(), 8).expect("measured"));
    rows.push(format!(
        "barrier at P=256|IBM MPI|{:.0}%|73%",
        100.0 - 100.0 * srm / ibm
    ));
    let title = "Headline reproduction (improvement = 100% - T_SRM/T_MPI x 100%)";
    table(title, "op|vs|improvement|paper", rows)
}

/// Figure 12, carried on to 4 096 processors with `SrmModel`'s closed
/// form beside it.
fn fig12(s: &[Series], f: &Figs) -> String {
    let rows = s[0].topos.iter().map(|&t| {
        let v = s[0].get(f, Impl::Srm, t, 8).expect("measured");
        let model = v.model_ps.expect("the model prices the barrier") as f64 / 1e6;
        let [srm, mpi, mpich] = Impl::ALL.map(|imp| s[0].us(f, imp, t, 8).expect("measured"));
        let (ratio, fit) = (100.0 * srm / mpi, srm / model);
        format!(
            "{}|{srm:.1}|{model:.1}|{mpi:.1}|{mpich:.1}|{ratio:.0}%|{fit:.2}",
            t.nprocs()
        )
    });
    let head = "procs|SRM (us)|model|MPI (us)|MPICH (us)|SRM/MPI|SRM/model";
    table(
        "Figure 12: barrier time vs number of processors",
        head,
        rows,
    )
}

/// E10: the model against the simulation, with the plan the model picks.
fn model_table(s: &[Series], f: &Figs) -> String {
    let mut worst: f64 = 1.0;
    let (trees, a2a) = s.split_at(4);
    let on = |t| {
        trees
            .iter()
            .flat_map(move |s| s.sizes.iter().map(move |&l| (s, t, l)))
    };
    let points = trees[0].topos.iter().flat_map(|&t| on(t));
    let points = points.chain(a2a.iter().map(|s| (s, s.topos[0], s.sizes[0])));
    let rows: Vec<String> = points
        .map(|(s, t, len)| {
            let v = s.get(f, Impl::Srm, t, len).expect("measured");
            let model = v.model_ps.expect("the model covers it") as f64 / 1e6;
            let (sim, plan) = (v.ps as f64 / 1e6, v.plan.clone().unwrap_or_default());
            worst = worst.max((sim / model).max(model / sim));
            let (op, (n, p)) = (s.op.name(), (t.nodes(), t.tasks_per_node()));
            format!(
                "{op}|{n}x{p}|{len}|{model:.1}|{sim:.1}|{:.2}|{plan}",
                sim / model
            )
        })
        .collect();
    let head = "op|topo|bytes|model (us)|sim (us)|ratio|plan: trees (inter / intra-node reduce)";
    let out = table("SrmModel vs the simulation, SRM", head, rows);
    out + &format!("worst-case model/sim discrepancy factor: {worst:.2}\n")
}

/// X8 and X10: each op against both MPIs at the largest processor count,
/// then its ratio tables.
fn extra(s: &[Series], f: &Figs) -> String {
    let one = |s: &Series| {
        let pairwise = matches!(s.op, Op::Alltoall | Op::ReduceScatter);
        let segment = if pairwise { "per-pair" } else { "per-rank" };
        let title = format!("Extra figure: {} ({segment} segment bytes)", s.op.name());
        let p = s.topos.last().expect("a topology").nprocs();
        let max_len = if pairwise { (512 << 10) / p } else { 64 << 10 };
        comparison(s, f, &title, max_len) + "\n" + &ratios(s, f, &title)
    };
    s.iter().map(one).collect::<Vec<_>>().join("\n")
}

/// X16: reduce_scatter staged vs direct vs the default route.
fn route(s: &[Series], f: &Figs) -> String {
    let threshold = SrmTuning::default().pairwise_direct_min;
    let one = |&t: &Topology| {
        let rows = s[0].points().filter(|p| p.0 == t).map(|(_, len)| {
            let [staged, direct, default] = [0, 1, 2].map(|i| at(&s[i], f, t, len));
            let side = if len >= threshold { "direct" } else { "staged" };
            let change = 100.0 * (direct / staged - 1.0);
            format!("{len}|{staged:.1}|{direct:.1}|{default:.1}|{side}|{change:+.1}%")
        });
        let head = "seg bytes|staged (us)|direct (us)|default (us)|route|dir/stg";
        table(&format!("reduce_scatter route on {t}"), head, rows)
    };
    let tables: Vec<String> = s[0].topos.iter().map(one).collect();
    format!(
        "default pairwise_direct_min = {threshold} B\n\n{}",
        tables.join("\n")
    )
}

/// A1: every tree kind forced, and the default with the trees it derives.
fn tree(s: &[Series], f: &Figs) -> String {
    let kinds: Vec<String> = TreeKind::ALL
        .iter()
        .map(|k| format!("{k:?}").to_lowercase())
        .collect();
    let one = |ss: &[Series]| {
        let rows = ss[0].sizes.iter().map(|&len| {
            let cells: Vec<String> = ss.iter().map(|s| us(Some(at(s, f, p256(), len)))).collect();
            let plan = ss[5]
                .get(f, Impl::Srm, p256(), len)
                .and_then(|v| v.plan.clone());
            format!("{len}|{}|{}", cells.join("|"), plan.unwrap_or_default())
        });
        let title = format!("Ablation A1: {}, SRM on P=256 (us)", ss[0].op.name());
        table(
            &title,
            &format!("bytes|{}|derived|derived trees", kinds.join("|")),
            rows,
        )
    };
    s.chunks(6).map(one).collect::<Vec<_>>().join("\n")
}

/// A3: the broadcast's pipeline chunk, pipelining off, and the
/// small/large switch.
fn pipeline_tables(s: &[Series], f: &Figs) -> String {
    let chunk = s[..5].iter().map(|s| {
        format!(
            "{}|{:.1}",
            s.tuning.pipeline_chunk,
            at(s, f, p256(), 16 << 10)
        )
    });
    let title = "Ablation A3a: pipeline chunk for a 16 KB broadcast (paper: 4 KB), P=256";
    let a = table(title, "chunk|us", chunk);
    let pair = |i: usize| {
        let rows = s[i].sizes.iter().map(move |&len| {
            let (x, y) = (at(&s[i], f, p256(), len), at(&s[i + 1], f, p256(), len));
            format!("{len}|{x:.1}|{y:.1}|{:+.0}%", 100.0 * (x / y - 1.0))
        });
        rows.collect::<Vec<_>>()
    };
    let title = "Ablation A3b: pipelined vs single put per message, P=256";
    let b = table(
        title,
        "bytes|pipelined (us)|single-put (us)|change",
        pair(5),
    );
    let title = "Ablation A3c: small/large switch for a 48-128 KB broadcast (paper: 64 KB)";
    let c = table(title, "bytes|buffered (us)|zero-copy (us)|change", pair(7));
    [a, b, c].join("\n")
}

/// A4: what always-on interrupts cost the small calls, then the large
/// reduce and allreduce under the policy, the paper's 8 KB cut and
/// always-on.
fn interrupt_tables(s: &[Series], f: &Figs) -> String {
    let pair = |i: usize, t, len| match (
        s[i].us(f, Impl::Srm, t, len),
        s[i + 2].us(f, Impl::Srm, t, len),
    ) {
        (Some(a), Some(b)) => format!("{a:.1} / {b:.1}"),
        _ => "-".into(),
    };
    let rows = s[0].sizes.iter().map(|&len| {
        let (p64, p256) = (Topology::sp_16way(4), p256());
        let cells = [pair(0, p256, len), pair(1, p64, len), pair(1, p256, len)];
        format!("{len}|{}", cells.join("|"))
    });
    let title = "Ablation A4: interrupt policy, SRM policy / always-on (us)";
    let small = table(
        title,
        "bytes|broadcast P=256|alltoall P=64|alltoall P=256",
        rows,
    );
    let rows = s[4].sizes.iter().map(|&len| {
        let cell = |op: usize| {
            [0, 2, 4].map(|i| us(Some(at(&s[4 + op + i], f, Topology::sp_16way(4), len))))
        };
        format!("{len}|{}|{}", cell(0).join(" / "), cell(1).join(" / "))
    });
    let title = "Large calls on P=64: SRM policy / 8 KB cut / always-on (us)";
    small + "\n" + &table(title, "bytes|reduce|allreduce", rows)
}

/// A6: spin-then-yield against pure spinning.
fn yield_table(s: &[Series], f: &Figs) -> String {
    let (with, without) = s.split_at(3);
    let rows = with.iter().zip(without).map(|(a, b)| {
        let len = a.sizes[0];
        let (x, y) = (at(a, f, p256(), len), at(b, f, p256(), len));
        format!("{}|{len}|{x:.1}|{y:.1}", a.op.name())
    });
    let title = "Ablation A6: spin-then-yield vs pure spinning, P=256";
    table(title, "op|bytes|yield (us)|pure spin (us)", rows)
}

/// The headline comparison on the commodity VIA preset.
fn crossplatform(s: &[Series], f: &Figs) -> String {
    let points = s
        .iter()
        .flat_map(|s| s.points().map(move |(t, len)| (s, t, len)));
    let rows = points.map(|(s, t, len)| {
        let [a, b, c] = Impl::ALL.map(|imp| s.us(f, imp, t, len).expect("measured"));
        format!(
            "{}|{len}|{a:.1}|{b:.1}|{c:.1}|{:.0}%",
            s.op.name(),
            100.0 * a / b
        )
    });
    let title = "SRM vs MPI baselines on a commodity VIA cluster (8 x 8 = 64 procs)";
    table(title, "op|bytes|SRM (us)|IBM (us)|MPICH (us)|SRM/IBM", rows)
}
