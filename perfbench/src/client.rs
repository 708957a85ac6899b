//! The closed-loop client: one thread, one request in flight, every request
//! under a deadline that is enforced by killing the worker process and
//! starting another.

use crate::exec::{Done, Outcome};
use crate::ledger;
use crate::metrics::Untraced;
use crate::worker::decode;
use crate::workload::{Request, Workload};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Deadline of a worker's warm-up requests.
const WARMUP_DEADLINE: Duration = Duration::from_secs(60);

/// A traced request also runs the layer probes and records spans, so it
/// gets this many times the workload's deadline.
const TRACED_DEADLINE_FACTOR: u32 = 4;

/// Share of `--seconds` the untraced pass of a `--trace 1` run measures; the
/// traced pass then replays the requests it completed.
const TRACED_RUN_UNTRACED_SHARE: f64 = 0.25;

/// No traced request starts later than this after process start, so a
/// traced run ends within three minutes.
const TRACED_PASS_CUTOFF: Duration = Duration::from_secs(120);

/// How many times a run sets up; `setup_s` is the median.
const SETUP_REPETITIONS: usize = 5;

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub deadline: Duration,
    /// The executable that serves `--worker` (this benchmark's own binary).
    pub worker_exe: PathBuf,
}

/// A request that failed, with what is needed to reproduce it.
#[derive(Debug, Clone)]
pub struct Failure {
    pub pass: &'static str,
    pub index: usize,
    pub program: String,
    pub generator_seed: Option<u64>,
    pub reason: String,
    /// The planner answered, and the answer was wrong (as opposed to no
    /// answer: a typed error, a panic or a missed deadline).
    pub wrong: bool,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pass={} request={} program={}",
            self.pass, self.index, self.program
        )?;
        if let Some(seed) = self.generator_seed {
            write!(f, " generator_seed={seed}")?;
        }
        write!(f, " reason={}", self.reason)
    }
}

/// The traced pass: per-layer totals over the requests it replayed.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    pub sums: BTreeMap<String, f64>,
    pub requests: usize,
    /// Untraced wall time of the same requests.
    pub untraced_request_ns: f64,
}

/// Everything a run measured.
#[derive(Debug, Clone)]
pub struct Report {
    pub untraced: Untraced,
    pub traced: Option<Traced>,
    pub failures: Vec<Failure>,
    /// Requests attempted over both passes.
    pub attempted: usize,
}

impl Report {
    /// Whether the run's figures can be trusted: the traced pass reproduced
    /// every plan of the untraced pass it replayed. The planner's own wrong
    /// answers are failed requests, counted in `failed`.
    pub fn correct(&self) -> bool {
        !self.failures.iter().any(|f| f.pass == "traced" && f.wrong)
    }
}

/// Run the benchmark. `started` is when the process started.
pub fn run(cfg: &Config, started: Instant) -> Result<Report, String> {
    let list = cfg.workload.request_list(cfg.seed);
    let mut worker = Worker::start(cfg)?;
    let mut setups = vec![started.elapsed().as_secs_f64()];

    let budget = if cfg.trace {
        cfg.seconds * TRACED_RUN_UNTRACED_SHARE
    } else {
        cfg.seconds
    };
    let mut failures = Vec::new();
    let (mut untraced, completed) = untraced_pass(
        cfg,
        &list,
        &mut worker,
        Duration::from_secs_f64(budget),
        &mut failures,
    )?;
    worker.stop();

    while setups.len() < SETUP_REPETITIONS {
        let start = Instant::now();
        let list = cfg.workload.request_list(cfg.seed);
        let worker = Worker::start(cfg)?;
        setups.push(start.elapsed().as_secs_f64());
        std::hint::black_box(list);
        worker.stop();
    }
    untraced.setup_s = crate::metrics::percentile(&setups, 0.5);

    let mut attempted = untraced.attempted;
    let traced = if cfg.trace {
        let before = failures.len();
        let traced = traced_pass(cfg, &list, &completed, started, &mut failures)?;
        attempted += traced.requests + failures.len() - before;
        Some(traced)
    } else {
        None
    };
    Ok(Report {
        untraced,
        traced,
        failures,
        attempted,
    })
}

fn failure(pass: &'static str, request: &Request, reason: String, wrong: bool) -> Failure {
    Failure {
        pass,
        index: request.index,
        program: request.kind.to_string(),
        generator_seed: request.kind.generator_seed(),
        reason,
        wrong,
    }
}

/// The measured closed loop: requests in list order for `budget`, then on to
/// the end of the round.
fn untraced_pass(
    cfg: &Config,
    list: &[Request],
    worker: &mut Worker,
    budget: Duration,
    failures: &mut Vec<Failure>,
) -> Result<(Untraced, Vec<(usize, Done)>), String> {
    let deadline_ms = cfg.deadline.as_secs_f64() * 1e3;
    let mut u = Untraced::default();
    let mut completed = Vec::new();
    let start = Instant::now();
    let mut cpu_base = worker.cpu_s();
    let mut cpu = 0.0;
    while start.elapsed() < budget || !cfg.workload.at_round_boundary(u.attempted) {
        let request = &list[u.attempted % list.len()];
        u.attempted += 1;
        let reason = match worker.ask(&format!("run {} 0", request.index), cfg.deadline) {
            Reply::Line(line) => match decode(&line)? {
                Outcome::Done(done) => {
                    u.completed += 1;
                    u.latencies_ms
                        .push((done.wall_ns as f64 / 1e6, request.index));
                    u.peak_heap_bytes = u.peak_heap_bytes.max(done.peak_heap_bytes);
                    u.allocations += done.allocations;
                    completed.push((request.index, done));
                    continue;
                }
                Outcome::Failed(f) => {
                    u.latencies_ms.push((f.wall_ns as f64 / 1e6, request.index));
                    failure("untraced", request, f.reason, f.wrong)
                }
            },
            lost => {
                cpu += worker.cpu_s() - cpu_base;
                worker.restart(cfg)?;
                cpu_base = worker.cpu_s();
                u.latencies_ms.push((deadline_ms, request.index));
                failure("untraced", request, lost.describe(cfg.deadline), false)
            }
        };
        u.failed += 1;
        failures.push(reason);
    }
    u.wall_s = start.elapsed().as_secs_f64();
    u.cpu_s = cpu + worker.cpu_s() - cpu_base;
    Ok((u, completed))
}

/// Replay the requests the untraced pass completed, with spans on, and
/// check each plan fingerprint against the untraced one.
fn traced_pass(
    cfg: &Config,
    list: &[Request],
    completed: &[(usize, Done)],
    started: Instant,
    failures: &mut Vec<Failure>,
) -> Result<Traced, String> {
    let mut worker = Worker::start(cfg)?;
    let deadline = cfg.deadline * TRACED_DEADLINE_FACTOR;
    let mut t = Traced::default();
    for (index, untraced) in completed {
        if started.elapsed() > TRACED_PASS_CUTOFF {
            break;
        }
        let request = &list[*index];
        let lost = match worker.ask(&format!("run {index} 1"), deadline) {
            Reply::Line(line) => {
                let fail = match decode(&line)? {
                    Outcome::Done(done) if done.fingerprint == untraced.fingerprint => {
                        ledger::accumulate(&mut t.sums, &done.layers);
                        t.requests += 1;
                        t.untraced_request_ns += untraced.wall_ns as f64;
                        continue;
                    }
                    Outcome::Done(done) => format!(
                        "traced fingerprint {:x} differs from untraced {:x}",
                        done.fingerprint, untraced.fingerprint
                    ),
                    Outcome::Failed(f) => {
                        format!(
                            "traced run failed where the untraced one passed: {}",
                            f.reason
                        )
                    }
                };
                failures.push(failure("traced", request, fail, true));
                continue;
            }
            lost => lost,
        };
        worker.restart(cfg)?;
        failures.push(failure("traced", request, lost.describe(deadline), false));
    }
    worker.stop();
    Ok(t)
}

enum Reply {
    Line(String),
    Deadline,
    Exited,
}

impl Reply {
    fn describe(&self, deadline: Duration) -> String {
        match self {
            Reply::Deadline => format!("deadline {} ms missed", deadline.as_millis()),
            Reply::Exited => "worker process exited".to_owned(),
            Reply::Line(line) => line.clone(),
        }
    }
}

/// A worker process, warmed up and ready for requests.
struct Worker {
    child: Child,
    stdin: Option<ChildStdin>,
    replies: Receiver<String>,
    reader: Option<JoinHandle<()>>,
}

impl Worker {
    /// Start a worker and run its warm-up requests.
    fn start(cfg: &Config) -> Result<Worker, String> {
        let mut child = Command::new(&cfg.worker_exe)
            .args(["--worker", cfg.workload.name(), &cfg.seed.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start worker {}: {e}", cfg.worker_exe.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, replies) = channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut worker = Worker {
            stdin: child.stdin.take(),
            child,
            replies,
            reader: Some(reader),
        };
        match worker.ask("warmup", WARMUP_DEADLINE) {
            Reply::Line(line) if line == "warm" => Ok(worker),
            other => Err(format!(
                "worker warm-up failed: {}",
                other.describe(WARMUP_DEADLINE)
            )),
        }
    }

    /// Send one command and wait for its reply until `deadline` passes.
    fn ask(&mut self, command: &str, deadline: Duration) -> Reply {
        let Some(stdin) = self.stdin.as_mut() else {
            return Reply::Exited;
        };
        if writeln!(stdin, "{command}")
            .and_then(|()| stdin.flush())
            .is_err()
        {
            return Reply::Exited;
        }
        match self.replies.recv_timeout(deadline) {
            Ok(line) => Reply::Line(line),
            Err(RecvTimeoutError::Timeout) => Reply::Deadline,
            Err(RecvTimeoutError::Disconnected) => Reply::Exited,
        }
    }

    /// CPU time the worker has used so far, all threads, read from
    /// `/proc/<pid>/stat` (0 if it cannot be read).
    fn cpu_s(&self) -> f64 {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()));
        stat.ok().and_then(|s| cpu_seconds(&s)).unwrap_or(0.0)
    }

    /// Kill this worker, then start a fresh one in its place.
    fn restart(&mut self, cfg: &Config) -> Result<(), String> {
        self.shut_down();
        *self = Worker::start(cfg)?;
        Ok(())
    }

    /// Kill the worker and wait until it and the reader thread have ended.
    fn stop(mut self) {
        self.shut_down();
    }

    fn shut_down(&mut self) {
        self.stdin = None;
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.shut_down();
    }
}

/// The kernel's `USER_HZ`: `/proc` reports CPU times in ticks of 1/100 s on
/// every Linux architecture this benchmark runs on.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// `utime + stime` of a `/proc/<pid>/stat` line, in seconds.
fn cpu_seconds(stat: &str) -> Option<f64> {
    // The command name (field 2) may hold spaces; fields after it are
    // plain. utime and stime are fields 14 and 15.
    let after_name = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / CLOCK_TICKS_PER_S)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_seconds_reads_utime_and_stime() {
        let stat = "4242 (perf bench) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0";
        assert_eq!(cpu_seconds(stat), Some(3.0));
    }
}
