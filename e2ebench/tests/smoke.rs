//! The benchmark at a tiny scale: every metric is emitted with its unit,
//! a second seed runs, and a ledger set off by one fails its check.

use e2ebench::report::{run, Opts, Outcome, END_TO_END, PER_LAYER};
use e2ebench::workloads::{check, inputs, run_rep, Scale, Workload};
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn tiny(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let out = run(
        &Opts {
            workload,
            seed,
            seconds: 0.2,
            trace,
            scale: Scale::tiny(),
        },
        &scratch(&format!("{}-{seed}-{trace}", workload.name())),
    );
    assert!(out.correct, "{}", out.text);
    assert_eq!(out.failed, 0, "{}", out.text);
    assert!(out.attempted > 0);
    out
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

#[test]
fn every_end_to_end_metric_is_emitted_with_its_unit_on_every_workload() {
    let spec = benchmark_json();
    for w in Workload::ALL {
        assert!(spec.contains(&format!("\"name\": \"{}\"", w.name())));
        let out = tiny(w, 1, false);
        let got: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.0, m.2)).collect();
        assert_eq!(got, END_TO_END.to_vec(), "{}", w.name());
        for (name, value, unit) in &out.metrics {
            assert!(*value > 0.0, "{} {name} reads {value}", w.name());
            assert!(spec.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")));
        }
        let json = out.json();
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": "),
            "{json}"
        );
        assert!(json.contains("\"delivered_mpps\": {\"value\": "), "{json}");
    }
}

#[test]
fn every_per_layer_metric_is_emitted_with_its_unit() {
    let spec = benchmark_json();
    let out = tiny(Workload::Saturate, 1, true);
    let got: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.0, m.2)).collect();
    let want: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.0, m.1)).collect();
    assert_eq!(got, want);
    for (name, unit) in want {
        assert!(
            spec.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} missing from BENCHMARK.json"
        );
    }
    assert!(!out.text.contains("not measured"), "{}", out.text);
    assert!(out.text.contains("unattributed"), "{}", out.text);
}

#[test]
fn a_second_seed_runs_on_other_inputs() {
    let a = inputs(Workload::TraceReplay, 1, Scale::tiny());
    let b = inputs(Workload::TraceReplay, 2, Scale::tiny());
    assert_ne!(a.frames.digest, b.frames.digest);
    tiny(Workload::TraceReplay, 2, false);
    tiny(Workload::CaptureToDisk, 2, false);
}

#[test]
fn a_ledger_set_off_by_one_fails_its_check() {
    let dir = scratch("off-by-one");
    for w in Workload::ALL {
        let inp = inputs(w, 3, Scale::tiny());
        let rep = run_rep(&inp, false, &dir).expect("a tiny repetition runs");
        assert_eq!(check(&rep.ledger), Ok(()), "{}", w.name());
        let mut l = rep.ledger.clone();
        l.delivered += 1;
        assert!(check(&l).is_err(), "{}: delivered + 1 passed", w.name());
        let mut l = rep.ledger.clone();
        l.accepted += 1;
        assert!(check(&l).is_err(), "{}: accepted + 1 passed", w.name());
        let mut l = rep.ledger.clone();
        l.snapshot.queues[0].recycled_chunks += 1;
        assert!(check(&l).is_err(), "{}: recycled + 1 passed", w.name());
        let mut l = rep.ledger.clone();
        if let Some(p) = l.payload.as_mut() {
            p.1 = p.1.wrapping_add(1);
        } else if let Some(f) = l.flows.as_mut() {
            f.per_flow[0].1 += 1;
        } else if let Some(d) = l.disk.as_mut() {
            d.parsed += 1;
        }
        assert!(check(&l).is_err(), "{}: workload check passed", w.name());
    }
    let failed = Outcome {
        correct: false,
        attempted: 10,
        failed: 0,
        metrics: Vec::new(),
        text: String::new(),
    };
    assert_eq!(
        failed.json(),
        "{\"correct\": false, \"attempted\": 10, \"failed\": 0, \"metrics\": {}}"
    );
}
