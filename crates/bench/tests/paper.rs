//! The committed `FIGS.json` against the paper's claims and against the
//! tables EXPERIMENTS.md prints from it. Neither test simulates: both
//! read the file `figures run` wrote (`figures check` re-measures it).

use srm_bench::{figures, fill_marked, from_json, render, Figs};
use srm_cluster::Impl;

fn read(name: &str) -> String {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn committed() -> Figs {
    from_json(&read("FIGS.json")).expect("FIGS.json parses")
}

#[test]
fn srm_beats_both_mpis_at_every_point_of_figures_6_to_8_and_12() {
    let figs = committed();
    let mut worst = (0.0, String::new());
    for fig in figures()
        .into_iter()
        .filter(|f| ["fig6", "fig7", "fig8", "fig12"].contains(&f.name))
    {
        let s = &fig.series[0];
        for &topo in &s.topos {
            for &len in &s.sizes {
                let [srm, ibm, mpich] =
                    Impl::ALL.map(|imp| s.us(&figs, imp, topo, len).expect("measured"));
                let at = format!("{} P={} {len} B", s.op.name(), topo.nprocs());
                assert!(
                    srm < ibm && srm < mpich,
                    "{at}: SRM {srm} us, IBM {ibm}, MPICH {mpich}"
                );
                if srm / ibm > worst.0 {
                    worst = (srm / ibm, at);
                }
            }
        }
    }
    // The paper's four bands beside the measured ones.
    println!(
        "{}",
        render(&["headline"], &figs).expect("headline is registered")
    );
    println!("closest to IBM MPI: {} at {:.0}%", worst.1, 100.0 * worst.0);
}

#[test]
fn experiments_tables_are_printed_from_figs_json() {
    let doc = read("EXPERIMENTS.md");
    assert!(
        doc.matches("<!-- figures print ").count() >= 9,
        "the headline and E1–E8 blocks are marked"
    );
    let filled = fill_marked(&doc, &committed()).expect("every marked block renders");
    if let Some((want, have)) = filled.lines().zip(doc.lines()).find(|(w, h)| w != h) {
        panic!(
            "EXPERIMENTS.md has `{have}` where FIGS.json prints `{want}`: run \
             `cargo run --release -p srm-bench --bin figures -- doc EXPERIMENTS.md`"
        );
    }
    assert_eq!(
        filled, doc,
        "a marked block's length differs from what FIGS.json prints"
    );
}
