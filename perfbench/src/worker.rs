//! The worker process and its line protocol.
//!
//! Requests run in a child process so that a request past its deadline can
//! be stopped: the parent kills the worker and starts another. The parent
//! writes one command per line on the worker's stdin — `warmup`, or
//! `run <index> <traced 0|1>` — and the worker answers each with one line:
//!
//! * `done wall_ns=<n> fp=<hex> allocs=<n> peak=<n> [<key>=<value> ...]`
//! * `failed <wall_ns> <wrong 0|1> <reason>` — see [`Failed`]
//! * `warm` — the warm-up requests ran and passed

use crate::exec::{execute, Done, Failed, Outcome};
use crate::workload::Workload;
use std::collections::BTreeMap;
use std::io::{BufRead, Write};

/// Serve commands on stdin until it closes.
pub fn serve(workload: Workload, seed: u64) -> std::io::Result<()> {
    // Panics are answered as `refused` lines; the default hook would also
    // print each one to stderr.
    std::panic::set_hook(Box::new(|_| {}));
    let list = workload.request_list(seed);
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout().lock();
    for line in stdin.lock().lines() {
        let line = line?;
        let words: Vec<&str> = line.split_whitespace().collect();
        let reply = match words.as_slice() {
            ["warmup"] => warm_up(workload),
            ["run", index, traced] => match (index.parse::<usize>(), traced.parse::<u8>()) {
                (Ok(index), Ok(traced)) if index < list.len() => {
                    encode(&execute(workload, &list[index], traced == 1))
                }
                _ => format!("malformed command: {line}"),
            },
            _ => format!("malformed command: {line}"),
        };
        writeln!(stdout, "{reply}")?;
        stdout.flush()?;
    }
    Ok(())
}

fn warm_up(workload: Workload) -> String {
    for request in workload.warmup() {
        if let Outcome::Failed(f) = execute(workload, &request, false) {
            return format!("warm-up {} failed: {}", request.kind, f.reason);
        }
    }
    "warm".to_owned()
}

fn encode(outcome: &Outcome) -> String {
    let one_line = |s: &str| s.replace(['\n', '\r'], " ");
    match outcome {
        Outcome::Failed(f) => format!(
            "failed {} {} {}",
            f.wall_ns,
            u8::from(f.wrong),
            one_line(&f.reason)
        ),
        Outcome::Done(d) => {
            let mut line = format!(
                "done wall_ns={} fp={:x} allocs={} peak={}",
                d.wall_ns, d.fingerprint, d.allocations, d.peak_heap_bytes
            );
            for (k, v) in &d.layers {
                line.push_str(&format!(" {k}={v}"));
            }
            line
        }
    }
}

/// Parse a worker's answer to `run`.
pub fn decode(line: &str) -> Result<Outcome, String> {
    let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
    match kind {
        "failed" => {
            let mut parts = rest.splitn(3, ' ');
            let wall_ns = parts.next().and_then(|v| v.parse().ok());
            let wrong = parts.next().and_then(|v| v.parse::<u8>().ok());
            match (wall_ns, wrong, parts.next()) {
                (Some(wall_ns), Some(wrong), Some(reason)) => Ok(Outcome::Failed(Failed {
                    wall_ns,
                    wrong: wrong == 1,
                    reason: reason.to_owned(),
                })),
                _ => Err(format!("bad failure reply {line:?}")),
            }
        }
        "done" => {
            let mut fields = BTreeMap::new();
            for pair in rest.split_whitespace() {
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("bad field {pair:?} in {line:?}"))?;
                fields.insert(k, v);
            }
            let mut take = |k: &str| {
                fields
                    .remove(k)
                    .ok_or_else(|| format!("missing {k} in {line:?}"))
            };
            let int = |v: &str| v.parse::<u64>().map_err(|e| format!("{v:?}: {e}"));
            let wall_ns = int(take("wall_ns")?)?;
            let fingerprint = u64::from_str_radix(take("fp")?, 16).map_err(|e| e.to_string())?;
            let allocations = int(take("allocs")?)?;
            let peak_heap_bytes = int(take("peak")?)?;
            let layers = fields
                .into_iter()
                .map(|(k, v)| Ok((k.to_owned(), v.parse::<f64>().map_err(|e| e.to_string())?)))
                .collect::<Result<_, String>>()?;
            Ok(Outcome::Done(Done {
                wall_ns,
                fingerprint,
                allocations,
                peak_heap_bytes,
                layers,
            }))
        }
        _ => Err(format!("unknown reply {line:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_round_trip() {
        let done = Outcome::Done(Done {
            wall_ns: 12,
            fingerprint: 0xdead_beef,
            allocations: 7,
            peak_heap_bytes: 4096,
            layers: BTreeMap::from([("self.lp_ns".to_owned(), 1.5)]),
        });
        for outcome in [
            done,
            Outcome::Failed(Failed {
                wall_ns: 3,
                wrong: false,
                reason: "typed error: no phases".into(),
            }),
            Outcome::Failed(Failed {
                wall_ns: 4,
                wrong: true,
                reason: "replay mismatch: 1 vs 2".into(),
            }),
        ] {
            assert_eq!(decode(&encode(&outcome)), Ok(outcome));
        }
    }
}
