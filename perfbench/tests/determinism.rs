//! Runs every workload once at its smallest size and checks what must
//! repeat: the seeded counts of the single-threaded entry replays, and
//! that different seeds give different, valid op sequences.

use perfbench::inputs::{Inputs, Size, Workload};
use perfbench::socket::oracle_tree;
use perfbench::{run, Options, Outcome};

fn traced(workload: Workload, seed: u64) -> Outcome {
    let outcome = run(Options {
        workload,
        seed,
        seconds: 1.0,
        trace: true,
        size: Size::Smoke,
    })
    .expect("smoke run completes");
    assert!(
        outcome.correct,
        "{}: checks failed: {:?}",
        workload.name(),
        outcome.failures
    );
    assert_eq!(outcome.failed, 0);
    outcome
}

/// The counts two traced runs of one seed must agree on exactly.
fn seeded_counts(o: &Outcome) -> (Vec<u64>, Vec<usize>) {
    let counts = [
        "repair.runs",
        "durable.replayed_records",
        "update.ops_per_chunk",
    ]
    .iter()
    .map(|name| {
        let v = o
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} reported"));
        v.to_bits()
    })
    .collect();
    let edges = o
        .layers
        .as_ref()
        .expect("traced run keeps its replays")
        .final_edges
        .clone();
    (counts, edges)
}

#[test]
fn seeded_counts_repeat_exactly() {
    for workload in Workload::ALL {
        let first = seeded_counts(&traced(workload, 7));
        let second = seeded_counts(&traced(workload, 7));
        assert_eq!(
            first,
            second,
            "{}: seeded counts differ between runs",
            workload.name()
        );
        assert!(
            first.1.iter().all(|&e| e > 0),
            "{}: empty final grammar",
            workload.name()
        );
        if workload == Workload::PaperMix {
            let runs = f64::from_bits(first.0[0]);
            assert!(runs > 0.0, "paper_mix smoke run never recompressed");
        }
    }
}

#[test]
fn untraced_runs_check_their_outputs() {
    for workload in Workload::ALL {
        let outcome = run(Options {
            workload,
            seed: 3,
            seconds: 1.0,
            trace: false,
            size: Size::Smoke,
        })
        .expect("smoke run completes");
        assert!(
            outcome.correct,
            "{}: {:?}",
            workload.name(),
            outcome.failures
        );
        assert!(outcome.attempted > 0);
        for name in perfbench::GATED {
            let v = outcome
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} reported"));
            assert!(
                v.is_finite() && v > 0.0,
                "{}: {name} = {v}",
                workload.name()
            );
        }
    }
}

#[test]
fn seeds_give_different_valid_sequences() {
    for workload in Workload::ALL {
        let a = Inputs::generate(workload, 1, 1.0, Size::Smoke);
        let b = Inputs::generate(workload, 2, 1.0, Size::Smoke);
        let again = Inputs::generate(workload, 1, 1.0, Size::Smoke);
        let ops = |i: &Inputs| {
            i.docs
                .iter()
                .map(|d| format!("{:?}", d.ops))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            ops(&a),
            ops(&again),
            "{}: one seed, two sequences",
            workload.name()
        );
        assert_ne!(
            ops(&a),
            ops(&b),
            "{}: two seeds, one sequence",
            workload.name()
        );
        for inputs in [&a, &b] {
            for (doc, d) in inputs.docs.iter().enumerate() {
                oracle_tree(inputs, doc, d.ops.len()).unwrap_or_else(|e| {
                    panic!("{}: doc {doc} sequence invalid: {e}", workload.name())
                });
            }
        }
    }
}
