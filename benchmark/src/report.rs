//! Result files, the tables people read, `repeat` and `compare`.
//!
//! A result file holds a header and one or more *sets*; a set is every
//! workload run once untraced (end-to-end metrics) and once traced
//! (per-layer metrics). `run` writes one set, `repeat N` writes N.

use crate::json::Json;
use crate::run::Outcome;
use crate::spec::{Better, Kind, END_TO_END, PER_LAYER};
use crate::stats::{iqr_share, median};
use std::fmt::Write as _;

fn metrics_json(rows: &[(&'static str, f64)]) -> Json {
    Json::obj(rows.iter().map(|(name, v)| {
        (
            *name,
            Json::obj([("value", Json::Num(*v)), ("unit", Json::str(unit_of(name)))]),
        )
    }))
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// The one-line result of a single workload run. Without `detail` it
/// has exactly the keys the driver expects; with it, a `detail` member
/// carries the supporting rows for `run` and `repeat`.
pub fn run_json(o: &Outcome, trace: bool, detail: Option<&[(&'static str, Json)]>) -> Json {
    let metrics = if trace { &o.per_layer } else { &o.end_to_end };
    let mut members = vec![
        ("correct".to_string(), Json::Bool(o.failed == 0)),
        ("attempted".to_string(), Json::Num(o.attempted as f64)),
        ("failed".to_string(), Json::Num(o.failed as f64)),
        ("metrics".to_string(), metrics_json(metrics)),
    ];
    if let Some(extra) = detail {
        let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
        let shapes = o
            .shapes
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("calls", Json::Num(s.calls as f64)),
                    ("virt_us", Json::Num(s.virt_us)),
                    ("host_us", Json::Num(s.host_us)),
                    ("host_us_p_hi", Json::Num(s.host_us_p_hi)),
                    ("host_p_hi_pct", Json::Num(s.host_p_hi_pct)),
                    ("samples", Json::Num(s.samples as f64)),
                    ("ibm_virt_us", Json::Num(s.ibm_virt_us)),
                    ("mpich_virt_us", opt(s.mpich_virt_us)),
                    ("model_us", opt(s.model_us)),
                ])
            })
            .collect();
        let mut d = vec![
            ("workload".to_string(), Json::str(o.workload)),
            ("passes".to_string(), Json::Num(o.passes as f64)),
            (
                "traced_passes".to_string(),
                Json::Num(o.traced_passes as f64),
            ),
            ("shapes".to_string(), Json::Arr(shapes)),
            (
                "notes".to_string(),
                Json::obj(o.notes.iter().map(|(k, v)| (*k, Json::Num(*v)))),
            ),
        ];
        d.extend(extra.iter().map(|(k, v)| (k.to_string(), v.clone())));
        members.push(("detail".to_string(), Json::Obj(d)));
    }
    Json::Obj(members)
}

/// One workload's result-file entry, from the line a `--trace both
/// --detail` child printed.
pub fn workload_entry(result: &Json) -> Json {
    let top = |k: &str| result.get(k).cloned().unwrap_or(Json::Null);
    let detail = |k: &str| {
        result
            .get("detail")
            .and_then(|d| d.get(k))
            .cloned()
            .unwrap_or(Json::Null)
    };
    Json::obj([
        ("name", detail("workload")),
        ("attempted", top("attempted")),
        ("failed", top("failed")),
        ("pinned_cpu", detail("pinned_cpu")),
        ("passes", detail("passes")),
        ("traced_passes", detail("traced_passes")),
        ("end_to_end", top("end_to_end")),
        ("per_layer", top("metrics")),
        ("shapes", detail("shapes")),
        ("notes", detail("notes")),
    ])
}

fn fmt_num(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

fn metric_rows(j: Option<&Json>) -> Vec<(String, f64, String)> {
    j.map_or(&[][..], Json::members)
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                v.get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect()
}

/// Every metric of one set, by name, with its unit, plus the per-shape
/// detail tables.
pub fn print_set(set: &Json) -> String {
    let mut out = String::new();
    for w in set.get("workloads").map_or(&[][..], Json::items) {
        let name = w.get("name").and_then(Json::as_str).unwrap_or("?");
        let n = |k: &str| w.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let _ = writeln!(
            out,
            "\n== {name} ==  attempted {} failed {} fail_ratio {}  passes {}  pinned cpu {}",
            n("attempted"),
            n("failed"),
            fmt_num(n("failed") / n("attempted").max(1.0)),
            n("passes"),
            w.get("pinned_cpu")
                .and_then(Json::as_f64)
                .map_or("none".to_string(), |c| c.to_string()),
        );
        let _ = writeln!(out, "  end to end (tracing off)");
        for (k, v, u) in metric_rows(w.get("end_to_end")) {
            let _ = writeln!(out, "    {k:<40} {:>14} {u}", fmt_num(v));
        }
        let layers = metric_rows(w.get("per_layer"));
        if !layers.is_empty() {
            let _ = writeln!(out, "  per layer (traced run + micro-timings)");
            for (k, v, u) in layers {
                let _ = writeln!(out, "    {k:<40} {:>14} {u}", fmt_num(v));
            }
        }
        let _ = writeln!(
            out,
            "  per shape (supporting rows)\n    {:<22} {:>6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "shape", "calls", "virt us", "host us", "host p_hi", "ibm virt us", "mpich virt", "model us"
        );
        for s in w.get("shapes").map_or(&[][..], Json::items) {
            let f = |k: &str| {
                s.get(k)
                    .and_then(Json::as_f64)
                    .map_or("-".to_string(), fmt_num)
            };
            let _ = writeln!(
                out,
                "    {:<22} {:>6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
                s.get("name").and_then(Json::as_str).unwrap_or("?"),
                f("calls"),
                f("virt_us"),
                f("host_us"),
                f("host_us_p_hi"),
                f("ibm_virt_us"),
                f("mpich_virt_us"),
                f("model_us"),
            );
        }
        for (k, v) in w.get("notes").map_or(&[][..], Json::members) {
            let _ = writeln!(
                out,
                "    note {k:<35} {:>14}",
                fmt_num(v.as_f64().unwrap_or(f64::NAN))
            );
        }
    }
    out
}

/// `(workload, metric group, metric) -> values over the sets`.
fn series(doc: &Json, group: &str) -> Vec<(String, String, Vec<f64>)> {
    let mut out: Vec<(String, String, Vec<f64>)> = Vec::new();
    for set in doc.get("sets").map_or(&[][..], Json::items) {
        for w in set.get("workloads").map_or(&[][..], Json::items) {
            let wname = w.get("name").and_then(Json::as_str).unwrap_or("?");
            let mut rows = metric_rows(w.get(group));
            if group == "end_to_end" {
                let n = |k: &str| w.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                rows.push((
                    "fail_ratio".into(),
                    n("failed") / n("attempted").max(1.0),
                    "ratio".into(),
                ));
            }
            for (m, v, _) in rows {
                match out.iter_mut().find(|(a, b, _)| a == wname && *b == m) {
                    Some(row) => row.2.push(v),
                    None => out.push((wname.to_string(), m, vec![v])),
                }
            }
        }
    }
    out
}

/// Spread of a series: interquartile range over the median with four
/// or more values, full range over the median with fewer.
fn spread(v: &[f64]) -> f64 {
    if v.len() >= 4 {
        return iqr_share(v);
    }
    let (lo, hi) = v
        .iter()
        .fold((f64::MAX, f64::MIN), |(l, h), &x| (l.min(x), h.max(x)));
    let med = median(v);
    if med == 0.0 {
        0.0
    } else {
        (hi - lo) / med
    }
}

/// Is this metric compared by equality?
fn is_exact(name: &str) -> bool {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.kind))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.3)))
        // `fail_ratio` also rides along with the end-to-end rows.
        .find(|(n, _)| *n == name)
        .is_some_and(|(_, kind)| kind == Kind::Exact)
}

/// Per-metric min / median / max and relative spread over the sets of
/// one result file, and whether every metric met its own rule: exact
/// metrics identical in every set, noisy end-to-end metrics within
/// their bound.
pub fn repeat_summary(doc: &Json) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    for group in ["end_to_end", "per_layer"] {
        let _ = writeln!(
            out,
            "\n{group}: {:<18} {:<40} {:>12} {:>12} {:>12} {:>9}  verdict",
            "workload", "metric", "min", "median", "max", "spread"
        );
        for (w, m, v) in series(doc, group) {
            let (lo, hi) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(l, h), &x| (l.min(x), h.max(x)));
            let sp = spread(&v);
            let verdict = if is_exact(&m) {
                if lo == hi {
                    "identical"
                } else {
                    ok = false;
                    "DIFFERS (must be identical)"
                }
            } else if let Some(e) = END_TO_END.iter().find(|e| e.name == m) {
                if sp <= e.bound {
                    "within bound"
                } else {
                    ok = false;
                    "SPREAD EXCEEDS BOUND"
                }
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "{:<12}{w:<18} {m:<40} {:>12} {:>12} {:>12} {:>8.2}%  {verdict}",
                "",
                fmt_num(lo),
                fmt_num(median(&v)),
                fmt_num(hi),
                100.0 * sp
            );
        }
    }
    (out, ok)
}

/// Compare two result files: one row per (workload, end-to-end metric)
/// with both medians, the bound and a verdict, then every exact
/// per-layer metric that differs. Returns the table and whether
/// anything regressed (or `fail_ratio` rose).
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    for (which, doc) in [("first", a), ("second", b)] {
        if doc.get("quick").and_then(Json::as_bool) != Some(false) {
            return Err(format!(
                "the {which} file is a --quick result (or not a result file): quick numbers are not comparable"
            ));
        }
    }
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<18} {:<22} {:>14} {:>14} {:>8} {:>9}  verdict",
        "workload", "metric", "median A", "median B", "bound", "change"
    );
    let sb = series(b, "end_to_end");
    for (w, m, va) in series(a, "end_to_end") {
        let Some((_, _, vb)) = sb.iter().find(|(w2, m2, _)| *w2 == w && *m2 == m) else {
            continue;
        };
        let (ma, mb) = (median(&va), median(vb));
        let spec = END_TO_END.iter().find(|e| e.name == m);
        let better = spec.map_or(Better::Lower, |e| e.better);
        let bound = spec.map_or(0.0, |e| e.bound);
        // Positive = worse.
        let worse = match better {
            Better::Lower => mb - ma,
            Better::Higher => ma - mb,
        };
        let rel = if ma == 0.0 { worse } else { worse / ma.abs() };
        let verdict = if is_exact(&m) {
            if ma == mb {
                "unchanged"
            } else if worse > 0.0 {
                "regressed"
            } else {
                "improved"
            }
        } else if spread(&va).max(spread(vb)) > bound {
            "unresolved"
        } else if rel > bound {
            "regressed"
        } else if rel < -bound {
            "improved"
        } else {
            "unchanged"
        };
        regressed |= verdict == "regressed";
        let _ = writeln!(
            out,
            "{w:<18} {m:<22} {:>14} {:>14} {:>7.1}% {:>+8.2}%  {verdict}",
            fmt_num(ma),
            fmt_num(mb),
            100.0 * bound,
            100.0 * rel
        );
    }
    let lb = series(b, "per_layer");
    let mut header = false;
    for (w, m, va) in series(a, "per_layer") {
        if !is_exact(&m) {
            continue;
        }
        let Some((_, _, vb)) = lb.iter().find(|(w2, m2, _)| *w2 == w && *m2 == m) else {
            continue;
        };
        let (ma, mb) = (median(&va), median(vb));
        if ma != mb {
            if !header {
                let _ = writeln!(out, "\nexact per-layer metrics that differ:");
                header = true;
            }
            let _ = writeln!(
                out,
                "{w:<18} {m:<40} {:>14} -> {:>14}",
                fmt_num(ma),
                fmt_num(mb)
            );
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(host: &[f64], speedup: f64, failed: f64) -> Json {
        let sets = host
            .iter()
            .map(|&h| {
                Json::obj([(
                    "workloads",
                    Json::Arr(vec![Json::obj([
                        ("name", Json::str("small_p256")),
                        ("attempted", Json::Num(100.0)),
                        ("failed", Json::Num(failed)),
                        (
                            "end_to_end",
                            Json::obj([
                                (
                                    "virt_speedup_vs_ibm",
                                    Json::obj([
                                        ("value", Json::Num(speedup)),
                                        ("unit", Json::str("ratio")),
                                    ]),
                                ),
                                (
                                    "host_us_per_call",
                                    Json::obj([("value", Json::Num(h)), ("unit", Json::str("us"))]),
                                ),
                            ]),
                        ),
                    ])]),
                )])
            })
            .collect();
        Json::obj([("quick", Json::Bool(false)), ("sets", Json::Arr(sets))])
    }

    fn verdicts(a: &Json, b: &Json) -> (String, bool) {
        compare(a, b).unwrap()
    }

    #[test]
    fn compare_verdicts() {
        let base = doc(&[100.0, 101.0, 99.0], 3.0, 0.0);
        let (t, bad) = verdicts(&base, &doc(&[100.5, 101.0, 99.5], 3.0, 0.0));
        assert!(!bad && t.matches("unchanged").count() == 3, "{t}");
        let (t, bad) = verdicts(&base, &doc(&[130.0, 131.0, 129.0], 3.0, 0.0));
        assert!(bad && t.contains("regressed"), "{t}");
        let (t, bad) = verdicts(&base, &doc(&[70.0, 71.0, 69.0], 3.1, 0.0));
        assert!(!bad && t.matches("improved").count() == 2, "{t}");
        // Deterministic metrics compare by equality: any drop regresses.
        let (t, bad) = verdicts(&base, &doc(&[100.0, 101.0, 99.0], 2.999, 0.0));
        assert!(bad, "{t}");
        // A file whose own spread exceeds the bound resolves nothing.
        let (t, bad) = verdicts(&base, &doc(&[100.0, 160.0, 60.0], 3.0, 0.0));
        assert!(!bad && t.contains("unresolved"), "{t}");
        // Any rise in fail_ratio is a regression.
        let (t, bad) = verdicts(&base, &doc(&[100.0, 101.0, 99.0], 3.0, 1.0));
        assert!(bad, "{t}");
    }

    #[test]
    fn compare_refuses_quick_results() {
        let quick = Json::obj([("quick", Json::Bool(true)), ("sets", Json::Arr(vec![]))]);
        assert!(compare(&quick, &doc(&[1.0], 1.0, 0.0)).is_err());
    }

    #[test]
    fn repeat_flags_a_differing_exact_metric() {
        let mut d = doc(&[100.0, 101.0], 3.0, 0.0);
        assert!(repeat_summary(&d).1);
        if let Json::Obj(m) = &mut d {
            let other = doc(&[100.0], 3.5, 0.0);
            if let (Some((_, Json::Arr(sets))), Some(Json::Arr(more))) = (
                m.iter_mut().find(|(k, _)| k == "sets"),
                other.get("sets").cloned(),
            ) {
                sets.extend(more);
            }
        }
        assert!(!repeat_summary(&d).1);
    }
}
