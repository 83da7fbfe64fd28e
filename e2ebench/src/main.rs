//! `e2ebench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints a readable report, then one JSON result line as the last line
//! of standard output. Exits non-zero when a correctness check fails.

use e2ebench::report::{run, Opts};
use e2ebench::workloads::{Scale, Workload};
use std::process::ExitCode;

fn parse() -> Result<Opts, String> {
    let mut o = Opts {
        workload: Workload::Saturate,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::full(),
    };
    let mut workload = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => o.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => o.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    o.workload = workload.ok_or("--workload is required")?;
    if !(o.seconds > 0.0 && o.seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {}", o.seconds));
    }
    Ok(o)
}

fn main() -> ExitCode {
    e2ebench::host::fix_mmap_threshold();
    let opts = match parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    // The engine reads its telemetry settings from the environment; run
    // it with its defaults whatever the caller's environment holds.
    for var in [
        "WIRECAP_TELEMETRY_LISTEN",
        "WIRECAP_TELEMETRY_SAMPLE_MS",
        "WIRECAP_TELEMETRY_FLIGHT_DIR",
        "WIRECAP_TELEMETRY_DUMP",
    ] {
        std::env::remove_var(var);
    }
    // Capture files stay inside the working directory (the checkout).
    let scratch = std::path::Path::new(".e2ebench-tmp").join(std::process::id().to_string());
    let out = run(&opts, &scratch);
    std::fs::remove_dir_all(&scratch).ok();
    // Removes the parent too when no other run is using it.
    std::fs::remove_dir(".e2ebench-tmp").ok();
    print!("{}", out.text);
    println!("{}", out.json());
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
