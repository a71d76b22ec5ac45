//! The paper's figures (6–12), the headline bands, the extra figures and
//! the ablations from one registry and one checked file.
//!
//! ```sh
//! cargo run --release -p srm-bench --bin figures -- run [--threads N] [FILE]
//! cargo run --release -p srm-bench --bin figures -- check [--threads N] [FILE]
//! cargo run --release -p srm-bench --bin figures -- print FIG...
//! cargo run --release -p srm-bench --bin figures -- doc MARKDOWN...
//! ```
//!
//! `run` measures each distinct point of every figure once and writes
//! FILE (default `FIGS.json`); `check` re-measures and lists each point
//! that differs from FILE, exiting 1 if any does; `print` renders the
//! named figures (all of them if none is named) from `FIGS.json` alone;
//! `doc` refills the blocks of each markdown file marked
//! `<!-- figures print FIG... -->` … `<!-- end figures -->` from it.
//! Measuring runs `--threads N` points at once (default 1), as long as
//! their user buffers stay within 1 GiB together; the file is the same
//! whatever the count. One point peaks at 8.4 GB resident (the 16×16
//! MPI gathers of 64 KB segments, the 16×16 IBM allreduce of 8 MB); two
//! threads finish sooner, but their process peaked at 15.7 GB.

use srm_bench::{diff, figures, fill_marked, from_json, measure_all, render, to_json, Figs};
use std::process::ExitCode;

const FILE: &str = "FIGS.json";

fn load(path: &str) -> Result<Figs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("figures: {e}\nusage: figures run|check [--threads N] [FILE] | print FIG... | doc MARKDOWN...");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let (cmd, mut rest) = args.split_first().ok_or("no command")?;
    let mut threads = 1;
    if rest.first().map(String::as_str) == Some("--threads") {
        let n = rest.get(1).and_then(|n| n.parse().ok()).filter(|&n| n > 0);
        threads = n.ok_or("--threads takes a positive count")?;
        rest = &rest[2..];
    }
    let file = || match rest {
        [] => Ok(FILE),
        [path] => Ok(path.as_str()),
        _ => Err("one FILE at most".to_string()),
    };
    match cmd.as_str() {
        "run" => {
            let wall = std::time::Instant::now();
            let figs = measure_all(threads);
            std::fs::write(file()?, to_json(&figs)).map_err(|e| e.to_string())?;
            eprintln!(
                "{} points on {threads} thread(s) in {:.1?}",
                figs.len(),
                wall.elapsed()
            );
        }
        "check" => {
            let old = load(file()?)?;
            let wall = std::time::Instant::now();
            let lines = diff(&old, &measure_all(threads));
            lines.iter().for_each(|l| println!("{l}"));
            println!(
                "{} point(s) differ; {} checked on {threads} thread(s) in {:.1?}",
                lines.len(),
                old.len(),
                wall.elapsed()
            );
            if !lines.is_empty() {
                return Ok(ExitCode::FAILURE);
            }
        }
        "print" => {
            let all: Vec<&str> = figures().iter().map(|f| f.name).collect();
            let names: Vec<&str> = rest.iter().map(String::as_str).collect();
            print!(
                "{}",
                render(if names.is_empty() { &all } else { &names }, &load(FILE)?)?
            );
        }
        "doc" => {
            let figs = load(FILE)?;
            for path in rest {
                let doc = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                std::fs::write(path, fill_marked(&doc, &figs)?)
                    .map_err(|e| format!("{path}: {e}"))?;
            }
        }
        other => return Err(format!("unknown command {other}")),
    }
    Ok(ExitCode::SUCCESS)
}
