//! Runs the paper's experiments (§7, A–F) and prints their tables.
//!
//! With no arguments every experiment runs in order; otherwise only the named
//! ones, in the order given: `all_experiments b f`. Set `PVC_BENCH_FULL=1` for
//! parameters close to the paper's.

use pvc_bench::experiments::{SweepRow, SWEEP_HEADER, TPCH_HEADER};
use pvc_bench::{print_table, Scale};

fn main() {
    let mut letters: Vec<char> = std::env::args()
        .skip(1)
        .flat_map(|arg| arg.to_ascii_lowercase().chars().collect::<Vec<_>>())
        .collect();
    if letters.is_empty() {
        letters = ('a'..='f').collect();
    }
    // Reject a typo before the first (slow) sweep starts, not after it.
    if let Some(bad) = letters.iter().find(|l| !('a'..='f').contains(*l)) {
        eprintln!("unknown experiment `{bad}`: expected letters from a to f");
        std::process::exit(2);
    }

    let scale = Scale::from_env();
    let sweep = |rows: Vec<SweepRow>| rows.iter().map(SweepRow::cells).collect();
    for letter in letters {
        eprintln!(
            "running experiment {} at {scale:?} scale ...",
            letter.to_ascii_uppercase()
        );
        let (figure, header, cells): (&str, &[&str], Vec<Vec<String>>) = match letter {
            'a' => ("7", &SWEEP_HEADER, sweep(pvc_bench::experiment_a(scale))),
            'b' => ("8b", &SWEEP_HEADER, sweep(pvc_bench::experiment_b(scale))),
            'c' => ("8a", &SWEEP_HEADER, sweep(pvc_bench::experiment_c(scale))),
            'd' => ("9", &SWEEP_HEADER, sweep(pvc_bench::experiment_d(scale))),
            'e' => ("10", &SWEEP_HEADER, sweep(pvc_bench::experiment_e(scale))),
            _ => {
                let rows = pvc_bench::experiment_f(scale);
                ("11", &TPCH_HEADER, rows.iter().map(|r| r.cells()).collect())
            }
        };
        println!(
            "\n== Experiment {} (Figure {figure}) ==",
            letter.to_ascii_uppercase()
        );
        print_table(header, &cells);
    }
}
