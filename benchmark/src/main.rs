//! Command line of the repo benchmark.
//!
//! ```text
//! srm-benchmark --workload W --seed N --seconds S --trace 0|1    one workload, one JSON line (the driver's form)
//! srm-benchmark run [--seed N] [--seconds S] [--quick] [--out F] [--record]
//! srm-benchmark repeat N [--seed N] [--seconds S] [--out F]
//! srm-benchmark compare A.json B.json
//! srm-benchmark contract                                       print BENCHMARK.json
//! ```

use srm_benchmark::json::Json;
use srm_benchmark::report;
use srm_benchmark::run::{run_workload, Opts};
use srm_benchmark::spec::{self, DEFAULT_SEED, RUN_SECONDS};
use srm_benchmark::world::Fault;
use srm_benchmark::{proc, trace};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Where trace files and result files go: `benchmark/out/`.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Parsed `--flag value` / `--switch` arguments plus positionals.
struct Args {
    flags: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

impl Args {
    const SWITCHES: [&'static str; 3] = ["--quick", "--detail", "--record"];

    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut a = Args {
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(x) = it.next() {
            if Self::SWITCHES.contains(&x.as_str()) {
                a.flags.push((x.clone(), None));
            } else if x.starts_with("--") {
                let v = it.next().ok_or_else(|| format!("{x} needs a value"))?;
                a.flags.push((x.clone(), Some(v.clone())));
            } else {
                a.positional.push(x.clone());
            }
        }
        Ok(a)
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(k, _)| k == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for {name}: {v}")),
        }
    }
}

/// One workload in this process: the driver's form.
fn drive(args: &Args) -> Result<ExitCode, String> {
    let name = args.value("--workload").ok_or("--workload needs a name")?;
    let w = spec::workload(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seconds: f64 = args.number("--seconds", RUN_SECONDS as f64)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds out of range: {seconds}"));
    }
    // `--trace 1` splits the run between untraced and traced passes
    // (the difference between them is the tracing overhead); `--trace
    // both`, which `run` and `repeat` use, measures untraced for the
    // whole time first and traced after, and reports both metric sets.
    const TRACED_SHARE: f64 = 0.45;
    let (seconds, traced_seconds, both) = match args.value("--trace").unwrap_or("0") {
        "0" => (seconds, None, false),
        "1" => (seconds * TRACED_SHARE, Some(seconds * TRACED_SHARE), false),
        "both" => (seconds, Some(seconds * TRACED_SHARE), true),
        other => return Err(format!("--trace takes 0, 1 or both, not {other}")),
    };
    let trace_on = traced_seconds.is_some();
    let opts = Opts {
        seed: args.number("--seed", DEFAULT_SEED)?,
        seconds,
        traced_seconds,
        quick: args.has("--quick"),
        fault: match args.value("--fault") {
            None => Fault::None,
            Some("corrupt") => Fault::CorruptByte,
            Some("abort") => Fault::Abort,
            Some(other) => return Err(format!("unknown fault {other}")),
        },
    };
    // One CPU for the whole run: the simulator runs one LP thread at a
    // time, and every thread spawned from here inherits the mask.
    let pinned = proc::pin_to_one_cpu();
    let outcome = run_workload(&w, &opts);
    if trace_on {
        // Spans stayed in memory until now.
        let names: Vec<&str> = w.shapes.iter().map(|s| s.name).collect();
        let path = out_dir().join(format!("trace-{}.json", w.name));
        trace::write_chrome(&path, &names, &outcome.spans)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let detail = args.has("--detail").then(|| {
        [
            (
                "pinned_cpu",
                pinned.map_or(Json::Null, |c| Json::Num(c as f64)),
            ),
            ("seed", Json::Num(opts.seed as f64)),
            ("quick", Json::Bool(opts.quick)),
        ]
    });
    let mut line = report::run_json(&outcome, trace_on, detail.as_ref().map(|d| &d[..]));
    if both {
        if let Json::Obj(members) = &mut line {
            let e2e = report::run_json(&outcome, false, None);
            members.push((
                "end_to_end".into(),
                e2e.get("metrics").cloned().unwrap_or(Json::Null),
            ));
        }
    }
    println!("{}", line.render());
    Ok(ExitCode::SUCCESS)
}

/// Run one workload, untraced then traced, in a fresh child process
/// (its own `VmHWM`, its own pinning) and parse the JSON on the last
/// line of its output.
fn child(workload: &str, args: &Args) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--detail", "--trace", "both"])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    for flag in ["--seed", "--seconds", "--fault"] {
        if let Some(v) = args.value(flag) {
            cmd.args([flag, v]);
        }
    }
    if args.has("--quick") {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawning child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child for {workload} exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("child printed nothing")?;
    Json::parse(line).map_err(|e| format!("child output for {workload}: {e}"))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn header(args: &Args, pinned: bool) -> Result<Json, String> {
    let cpus = proc::allowed_cpus();
    Ok(Json::obj([
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        (
            "seed",
            Json::Num(args.number("--seed", DEFAULT_SEED)? as f64),
        ),
        (
            "seconds",
            Json::Num(args.number("--seconds", RUN_SECONDS as f64)?),
        ),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        (
            "allowed_cpus",
            Json::Arr(cpus.iter().map(|&c| Json::Num(c as f64)).collect()),
        ),
        ("pinned", Json::Bool(pinned)),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
    ]))
}

/// One set: every workload untraced, then traced.
fn one_set(args: &Args) -> Result<(Json, bool), String> {
    let mut entries = Vec::new();
    let mut clean = true;
    for w in spec::workloads() {
        let result = child(w.name, args)?;
        clean &= result.get("correct").and_then(Json::as_bool) == Some(true);
        entries.push(report::workload_entry(&result));
    }
    Ok((Json::obj([("workloads", Json::Arr(entries))]), clean))
}

fn write_result(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    // header / sets / set / workloads, then one line per workload.
    std::fs::write(path, doc.pretty_to(4)).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn sets_command(args: &Args, n: usize) -> Result<ExitCode, String> {
    let quick = args.has("--quick");
    if quick && args.has("--record") {
        return Err("--quick results are not a baseline: refusing to --record them".into());
    }
    let mut sets = Vec::new();
    let mut clean = true;
    for i in 0..n {
        let (set, ok) = one_set(args)?;
        clean &= ok;
        if n > 1 {
            println!("---- set {} of {n} ----", i + 1);
        }
        print!("{}", report::print_set(&set));
        sets.push(set);
    }
    let pinned = sets.iter().all(|set: &Json| {
        set.get("workloads")
            .map_or(&[][..], Json::items)
            .iter()
            .all(|w| w.get("pinned_cpu").and_then(Json::as_f64).is_some())
    });
    let doc = Json::obj([
        ("header", header(args, pinned)?),
        ("quick", Json::Bool(quick)),
        ("sets", Json::Arr(sets)),
    ]);
    let mut agree = true;
    if n > 1 {
        let (table, ok) = report::repeat_summary(&doc);
        println!("{table}");
        agree = ok;
    }
    let path = match args.value("--out") {
        Some(p) => PathBuf::from(p),
        None if args.has("--record") => Path::new(env!("CARGO_MANIFEST_DIR")).join("baseline.json"),
        None => out_dir().join("result.json"),
    };
    write_result(&path, &doc)?;
    println!("result file: {}", path.display());
    if !clean {
        eprintln!("benchmark: an output did not match its reference or a world aborted");
    }
    if !agree {
        eprintln!("benchmark: the sets disagree beyond the benchmark's own bounds");
    }
    Ok(if clean && agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_command(args: &Args) -> Result<ExitCode, String> {
    let [_, a, b] = &args.positional[..] else {
        return Err("compare takes two result files".into());
    };
    let load = |p: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (table, regressed) = report::compare(&load(a)?, &load(b)?)?;
    print!("{table}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = Args::parse(&raw).and_then(|args| {
        match args.positional.first().map(String::as_str) {
            None if args.has("--workload") => drive(&args),
            Some("run") => sets_command(&args, 1),
            Some("repeat") => {
                let n = args
                    .positional
                    .get(1)
                    .and_then(|n| n.parse().ok())
                    .filter(|n| (1..=100).contains(n))
                    .ok_or("repeat takes a count from 1 to 100")?;
                sets_command(&args, n)
            }
            Some("compare") => compare_command(&args),
            Some("contract") => {
                print!("{}", spec::contract().pretty());
                Ok(ExitCode::SUCCESS)
            }
            _ => Err("usage: --workload W --seed N --seconds S --trace 0|1 | run | repeat N | compare A B | contract".into()),
        }
    });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
