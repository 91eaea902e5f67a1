//! Every workload at toy scale, untraced and traced, plus the regression
//! gate fed results it must flag.

use std::path::PathBuf;

use dcn_benchmark::compare::{judge, Status};
use dcn_benchmark::record::{Catalogue, MetricSpec};
use dcn_benchmark::{run_workload, write_record, RunCtx, Scale, Workload};

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke")
}

fn spec<'a>(catalogue: &'a Catalogue, name: &str) -> &'a MetricSpec {
    catalogue
        .end_to_end
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not an end-to-end metric"))
}

/// One test, so the workloads run one after another: the traced runs
/// switch the process-wide telemetry plane on and off.
#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    let catalogue = Catalogue::load().expect("BENCHMARK.json parses");
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(
        catalogue.workloads, names,
        "BENCHMARK.json lists the four workloads"
    );
    let scale = Scale::toy();
    let ctx = RunCtx {
        out: out_dir(),
        artifacts: None,
    };
    for workload in Workload::ALL {
        for traced in [false, true] {
            let started = std::time::Instant::now();
            let outcome = run_workload(workload, 11, &scale, &ctx, traced)
                .unwrap_or_else(|e| panic!("{} (traced {traced}): {e}", workload.name()));
            let printed = write_record(workload, 11, &scale, &ctx, traced, &outcome)
                .unwrap_or_else(|e| panic!("{} (traced {traced}): {e}", workload.name()));
            let specs = catalogue.printed(traced);
            assert_eq!(printed.len(), specs.len());
            for (m, s) in printed.iter().zip(specs) {
                assert_eq!((&m.name, &m.unit), (&s.name, &s.unit));
                assert!(m.value().is_finite(), "{} {}", workload.name(), m.name);
            }
            assert_eq!(outcome.failed, 0, "{}: failed operations", workload.name());
            for c in &outcome.checks {
                assert!(c.ok, "{}: {} ({})", workload.name(), c.name, c.detail);
            }
            if !traced && workload != Workload::TrainCifar {
                let failed_share = outcome.ledger.get("failed_share").expect("failed_share");
                assert_eq!(failed_share.value(), 0.0);
            }
            if traced {
                for (shape, _) in dcn_benchmark::ledger::SHAPES {
                    let gap = outcome
                        .ledger
                        .get(&format!("nn.layer_sum_gap.serial.{shape}"))
                        .expect("serial layer-sum gap")
                        .value();
                    assert!(
                        gap.abs() < 0.05,
                        "{} {shape}: layer sum off by {gap}",
                        workload.name()
                    );
                }
            }
            eprintln!(
                "{} traced={traced}: {:.1} s",
                workload.name(),
                started.elapsed().as_secs_f64()
            );
        }
    }
}

#[test]
fn the_regression_gate_flags_lost_accuracy_and_a_slower_tail() {
    let catalogue = Catalogue::load().expect("BENCHMARK.json parses");
    let parent_acc: Vec<f64> = (0..10).map(|i| 0.99 + 0.0002 * f64::from(i % 3)).collect();
    let parent_p99: Vec<f64> = (0..10).map(|i| 5.0 + 0.02 * f64::from(i % 4)).collect();

    let accuracy = spec(&catalogue, "accuracy");
    let dropped: Vec<f64> = parent_acc.iter().map(|a| a - 0.01).collect();
    assert_eq!(
        judge(accuracy, &parent_acc, &dropped).status,
        Status::Regression
    );
    assert_eq!(
        judge(accuracy, &parent_acc, &parent_acc).status,
        Status::NoRegression
    );

    // 30% slower: the run-to-run spread of p99 on a shared two-core host
    // set its bound to 25%, so a 20% slowdown is within it.
    let p99 = spec(&catalogue, "p99_ms");
    let slower: Vec<f64> = parent_p99.iter().map(|p| p * 1.3).collect();
    assert_eq!(judge(p99, &parent_p99, &slower).status, Status::Regression);
    let faster: Vec<f64> = parent_p99.iter().map(|p| p * 0.7).collect();
    assert_eq!(judge(p99, &parent_p99, &faster).status, Status::Gain);

    // A spread wider than the bound shows neither a regression nor its
    // absence.
    let noisy: Vec<f64> = (0..10)
        .map(|i| if i % 2 == 0 { 3.0 } else { 7.0 })
        .collect();
    let worse: Vec<f64> = noisy.iter().map(|p| p * 1.05).collect();
    assert_eq!(judge(p99, &noisy, &worse).status, Status::Unresolved);
}
