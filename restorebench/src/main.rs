//! `rbpc-restorebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a stamp line and, last, one JSON result line. `--size tiny` runs
//! small inputs; `--trace-out <dir>` sets where a traced run writes its
//! spans (default `restorebench/out`).

use rbpc_restorebench::report::{END_TO_END, PER_LAYER};
use rbpc_restorebench::{run, Config, Size, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: rbpc-restorebench --workload <isp_events|internet_sweep|internet_resident> \
--seed <n> --seconds <s> --trace <0|1> [--size full|tiny] [--trace-out <dir>]";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::IspEvents,
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        threads: rbpc_core::default_threads(),
        trace_out: Some(PathBuf::from("restorebench/out")),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| bad())?;
                if !(cfg.seconds.is_finite() && cfg.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--size" => {
                cfg.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad()),
                }
            }
            "--trace-out" => cfg.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&cfg);
    println!("{}", outcome.stamp.to_json());
    let names: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", outcome.report.to_json(names));
    ExitCode::SUCCESS
}
