//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints every metric by name with its unit, the failures and, with
//! `--trace 1`, the per-layer ledger; the last line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

use perfbench::client::{self, Config, Report};
use perfbench::metrics::{self, LayerInputs};
use perfbench::workload::{Workload, NPROCS};
use perfbench::{ledger, worker};
use std::process::ExitCode;
use std::time::Instant;

/// How many of the slowest requests the report names.
const SLOWEST_SHOWN: usize = 5;

const USAGE: &str = "usage: perfbench --workload <suite|generated_lp|verify_exact> \
                     --seed <n> --seconds <1..=60> --trace <0|1>";

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--worker") {
        return serve_worker(&args[1..]);
    }
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match client::run(&cfg, started) {
        Ok(report) => {
            print_report(&cfg, &report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn serve_worker(args: &[String]) -> ExitCode {
    let (Some(workload), Some(Ok(seed))) = (
        args.first().and_then(|w| Workload::parse(w)),
        args.get(1).map(|s| s.parse()),
    ) else {
        eprintln!("perfbench: --worker needs a workload and a seed");
        return ExitCode::from(2);
    };
    match worker::serve(workload, seed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench worker: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=60"));
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Config {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        deadline: workload.deadline(),
        worker_exe: std::env::current_exe().map_err(|e| format!("own executable: {e}"))?,
    })
}

fn print_report(cfg: &Config, report: &Report) {
    let u = &report.untraced;
    println!(
        "perfbench workload={} seed={} seconds={} trace={} deadline_ms={} nprocs={NPROCS} \
         pool_workers={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.deadline.as_millis(),
        pool::workers(),
    );
    for f in &report.failures {
        println!("FAIL workload={} {f}", cfg.workload.name());
    }
    println!(
        "end-to-end, tracing off: {} attempted, {} completed, {} failed in {:.3} s",
        u.attempted, u.completed, u.failed, u.wall_s
    );
    let mut slowest = u.latencies_ms.clone();
    slowest.sort_by(|a, b| b.0.total_cmp(&a.0));
    let list = cfg.workload.request_list(cfg.seed);
    for (ms, index) in slowest.iter().take(SLOWEST_SHOWN) {
        println!("  slow request={index} {ms:.1} ms {}", list[*index].kind);
    }
    let e2e = metrics::end_to_end(u);
    for (m, v) in &e2e {
        println!("  {:<34} {v:>14.4} {}", m.name, m.unit);
    }

    let mut json_metrics = Vec::new();
    match &report.traced {
        None => json_metrics.extend(e2e.iter().map(|(m, v)| (m.name, m.unit, *v))),
        Some(t) => {
            print!(
                "{}",
                ledger::render(cfg.workload.name(), &t.sums, t.requests)
            );
            let inputs = LayerInputs {
                sums: &t.sums,
                traced: t.requests,
                untraced_request_ns: t.untraced_request_ns,
                untraced: u,
            };
            println!("per-layer, {} traced requests:", t.requests);
            for lm in metrics::PER_LAYER.iter() {
                let v = (lm.value)(&inputs);
                println!(
                    "  {:<34} {v:>14.4} {:<8} moves {}",
                    lm.metric.name, lm.metric.unit, lm.moves
                );
                json_metrics.push((lm.metric.name, lm.metric.unit, v));
            }
        }
    }
    let body: Vec<String> = json_metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failures.len(),
        body.join(", ")
    );
}
