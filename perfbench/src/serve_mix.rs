//! `serve-mix`: the `wbist serve` daemon in-process, under the request
//! loop users get (`wbist_serve::serve`), with one worker, one job
//! thread, a checkpoint directory and a 100 ms preemption slice.
//!
//! One client thread runs a closed loop with two clients for
//! `--seconds`, then lets the outstanding jobs finish:
//!
//! * tenant `batch` submits one s1196 synth job (64 rows, `L_G = 256`)
//!   at a time, and the next one once `BATCH_PAUSE_JOBS` interactive
//!   jobs have ended since the last one did;
//! * tenant `interactive` always has one job outstanding, alternating
//!   s298 synth jobs (32 rows, `L_G = 64`) with s1196 sim jobs of 1024
//!   LFSR rows.
//!
//! A batch job outlasts the slice, so the interactive traffic preempts
//! it to a checkpoint and resumes it until it reaches the daemon's cap
//! of eight automatic evictions: the only workload that exercises the
//! registry, the fair scheduler, checkpoint writes and reads, and the
//! latency a short job sees behind a long one.
//!
//! The shapes are chosen so that every reported percentile falls inside
//! one dense group of samples rather than on a step between two:
//!
//! * Every batch job is the same job and reaches the eviction cap, so
//!   its latency is work plus eight interruptions, not a count of
//!   evictions that moves with the input and the host's speed (each
//!   resume costs 50–65 ms of replay on a 2.0 GHz Xeon, so a job that
//!   needs few slices needs a number that jumps with small speed
//!   changes).
//! * The pause between batch jobs lets interactive jobs run without
//!   contention: 20 per batch job, against the eight that wait for a
//!   batch slice and the one that waits for the rest of an immune batch
//!   job. The interactive p50 thus lies among the uncontended jobs and
//!   the p90 among those that waited for a slice, and counting the pause
//!   in jobs rather than time keeps those shares fixed when the host's
//!   speed changes. Without the pause the last group is one job in nine,
//!   right at the p90.
//! * A sim job runs longer than nearly every s298 synth job, so the
//!   uncontended sim jobs hold the p50. A synth job writes a checkpoint
//!   with fsync after every kept assignment and its time follows the
//!   disk; a sim job's time is computation only.
//!
//! Interactive inputs come from `POOL` seeds per class drawn from the
//! bench seed; the batch input is fixed. Each distinct job is checked
//! against one uninterrupted run of the library with the same inputs.

use crate::trace::Tracer;
use crate::{
    lfsr_seed, mean, median, quantile, ratio, sub_seed, Args, Metrics, Outcome, DEFAULT_SEED,
    SETUP_REPS, SETUP_SAMPLE_MIN,
};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufReader, Read, Write};
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wbist_atpg::Lfsr;
use wbist_circuits::synthetic;
use wbist_core::{reverse_order_prune, PruneOptions, Synthesis, SynthesisConfig};
use wbist_netlist::{Circuit, FaultList};
use wbist_serve::{serve, ExitSummary, ServeConfig};
use wbist_sim::{FaultSim, RunOptions, TestSequence};
use wbist_telemetry::{Json, Telemetry};

/// Preemption slice of the daemon.
const SLICE_MS: u64 = 100;
/// Interactive jobs that end between a batch job's end and the next
/// batch submission (see `run_window`).
const BATCH_PAUSE_JOBS: usize = 20;
/// Distinct inputs per job class.
const POOL: usize = 32;
/// How long outstanding jobs may take to finish once the window closes.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    /// `batch`: s1196 synthesis.
    LongSynth,
    /// `interactive`: s298 synthesis.
    ShortSynth,
    /// `interactive`: s1196 fault simulation.
    ShortSim,
}

impl Class {
    /// Rows of the job's `T` (or of the simulated sequence).
    fn rows(self) -> usize {
        match self {
            Class::LongSynth => 64,
            Class::ShortSynth => 32,
            Class::ShortSim => 1024,
        }
    }

    /// Distinct inputs of the class.
    fn pool(self) -> usize {
        match self {
            Class::LongSynth => 1,
            Class::ShortSynth | Class::ShortSim => POOL,
        }
    }

    /// `L_G` of a synth job; `None` for a sim job.
    fn lg(self) -> Option<usize> {
        match self {
            Class::LongSynth => Some(256),
            Class::ShortSynth => Some(64),
            Class::ShortSim => None,
        }
    }

    fn circuit(self) -> &'static str {
        match self {
            Class::LongSynth | Class::ShortSim => "s1196",
            Class::ShortSynth => "s298",
        }
    }

    fn tenant(self) -> &'static str {
        match self {
            Class::LongSynth => "batch",
            Class::ShortSynth | Class::ShortSim => "interactive",
        }
    }
}

/// The reference for one (class, pool slot): what an uninterrupted
/// library run of the same inputs produces.
#[derive(Debug, Clone, PartialEq)]
struct Reference {
    omega: String,
    omega_len: usize,
    detected: u64,
    targets: u64,
    omega_pruned: usize,
    coverage_guaranteed: bool,
}

/// Pinned references at the default seed, slot 0: (class, |Ω| as the
/// rendered entry count, |Ω| pruned, detected, targets,
/// coverage_guaranteed).
const PINNED: [(Class, usize, usize, u64, u64, bool); 3] = [
    (Class::LongSynth, 48, 36, 1163, 1163, true),
    (Class::ShortSynth, 19, 8, 332, 332, true),
    (Class::ShortSim, 0, 0, 1648, 1978, false),
];

struct Inputs {
    s298: Circuit,
    s1196: Circuit,
    /// Rows per (class, slot), and the job seed.
    rows: BTreeMap<(Class, usize), (u64, TestSequence)>,
}

impl Inputs {
    fn build(seed: u64) -> Inputs {
        let s298 = synthetic::by_name("s298").expect("built-in stand-in");
        let s1196 = synthetic::by_name("s1196").expect("built-in stand-in");
        let mut rows = BTreeMap::new();
        for (ci, class) in [Class::LongSynth, Class::ShortSynth, Class::ShortSim]
            .into_iter()
            .enumerate()
        {
            let width = match class {
                Class::ShortSynth => s298.num_inputs(),
                _ => s1196.num_inputs(),
            };
            for slot in 0..class.pool() {
                // The batch job's inputs do not depend on the bench seed.
                let stream_seed = if class == Class::LongSynth {
                    DEFAULT_SEED
                } else {
                    seed
                };
                let job_seed = sub_seed(stream_seed, 100 + (ci * POOL + slot) as u64);
                let t = Lfsr::new(24, lfsr_seed(job_seed)).sequence(width, class.rows());
                rows.insert((class, slot), (job_seed, t));
            }
        }
        Inputs { s298, s1196, rows }
    }

    fn circuit(&self, class: Class) -> &Circuit {
        match class {
            Class::ShortSynth => &self.s298,
            _ => &self.s1196,
        }
    }

    fn submit_line(&self, id: &str, class: Class, slot: usize) -> String {
        let (seed, t) = &self.rows[&(class, slot)];
        let rows: Vec<Json> = t
            .iter()
            .map(|r| {
                let s: String = r.iter().map(|&b| if b { '1' } else { '0' }).collect();
                Json::Str(s)
            })
            .collect();
        let mut fields = vec![
            ("op", "submit".into()),
            ("id", id.into()),
            ("tenant", class.tenant().into()),
            (
                "kind",
                if class == Class::ShortSim {
                    "sim"
                } else {
                    "synth"
                }
                .into(),
            ),
            ("circuit", class.circuit().into()),
            ("rows", Json::Array(rows)),
            ("seed", (*seed).into()),
        ];
        if let Some(lg) = class.lg() {
            fields.push(("lg", lg.into()));
        }
        Json::obj(fields).render()
    }

    /// One uninterrupted library run of the inputs a job was given,
    /// configured as the daemon configures its jobs.
    fn reference(&self, class: Class, slot: usize) -> Reference {
        let (seed, t) = &self.rows[&(class, slot)];
        let c = self.circuit(class);
        let faults = FaultList::checkpoints(c);
        let Some(lg) = class.lg() else {
            let detected = FaultSim::new(c).query(&faults).sequence(t).count() as u64;
            return Reference {
                omega: String::new(),
                omega_len: 0,
                detected,
                targets: faults.len() as u64,
                omega_pruned: 0,
                coverage_guaranteed: false,
            };
        };
        let run = RunOptions::with_threads(1).seed(*seed);
        let cfg = SynthesisConfig {
            sequence_length: lg,
            run: run.clone(),
            ..SynthesisConfig::default()
        };
        let r = Synthesis::new(c, t, &faults).config(cfg).run();
        let pruned = reverse_order_prune(c, &faults, &r.omega, &PruneOptions::new(lg).run(run));
        let omega = Json::Array(
            r.omega
                .iter()
                .map(|sel| {
                    Json::obj(vec![
                        ("u", sel.detection_time.into()),
                        ("rank", sel.rank.into()),
                        ("newly_detected", sel.newly_detected.into()),
                        (
                            "subsequences",
                            Json::Array(
                                sel.assignment
                                    .subsequences()
                                    .iter()
                                    .map(|s| Json::Str(s.to_string()))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        Reference {
            omega: omega.render(),
            omega_len: r.omega.len(),
            detected: r.detected_faults() as u64,
            targets: r.target_count() as u64,
            omega_pruned: pruned.len(),
            coverage_guaranteed: r.coverage_guaranteed(),
        }
    }
}

/// The daemon's request stream: lines the benchmark sends.
struct ChanReader {
    rx: Receiver<String>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for ChanReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if self.pos == self.buf.len() {
            match self.rx.recv() {
                Ok(line) => {
                    self.buf = line.into_bytes();
                    self.buf.push(b'\n');
                    self.pos = 0;
                }
                Err(_) => return Ok(0),
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// The daemon's output sink: every complete line goes to the benchmark,
/// stamped when the daemon wrote it.
struct LineSink {
    tx: Sender<(Instant, String)>,
    pending: Vec<u8>,
}

impl Write for LineSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.pending.extend_from_slice(buf);
        while let Some(nl) = self.pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.pending.drain(..=nl).collect();
            let _ = self
                .tx
                .send((Instant::now(), String::from_utf8_lossy(&line).into_owned()));
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

struct Daemon {
    tx: Sender<String>,
    rx: Receiver<(Instant, String)>,
    handle: JoinHandle<io::Result<ExitSummary>>,
    dir: PathBuf,
    tel: Telemetry,
}

impl Daemon {
    fn start(dir: PathBuf, tel: Telemetry) -> Daemon {
        let cfg = ServeConfig {
            workers: 1,
            job_threads: 1,
            evict_after_ms: Some(SLICE_MS),
            ckpt_dir: Some(dir.clone()),
            telemetry: tel.clone(),
            ..ServeConfig::default()
        };
        let (req_tx, req_rx) = channel();
        let (out_tx, out_rx) = channel();
        let input = BufReader::new(ChanReader {
            rx: req_rx,
            buf: Vec::new(),
            pos: 0,
        });
        let sink = LineSink {
            tx: out_tx,
            pending: Vec::new(),
        };
        let handle = std::thread::spawn(move || serve(cfg, input, Box::new(sink)));
        Daemon {
            tx: req_tx,
            rx: out_rx,
            handle,
            dir,
            tel,
        }
    }

    fn send(&self, line: String) {
        self.tx.send(line).expect("daemon request loop is running");
    }

    /// Registers the circuits and waits for both replies.
    fn register(&self) -> Result<(), String> {
        for name in ["s298", "s1196"] {
            self.send(format!(
                r#"{{"op":"register","name":"{name}","builtin":"{name}"}}"#
            ));
        }
        let mut ok = 0;
        while ok < 2 {
            let (_, line) = self
                .rx
                .recv_timeout(DRAIN_LIMIT)
                .map_err(|_| "no register reply".to_string())?;
            let v = Json::parse(&line).map_err(|e| format!("bad daemon line: {e}"))?;
            if v.get("reply").and_then(Json::as_str) == Some("register") {
                if v.get("ok").and_then(Json::as_bool) != Some(true) {
                    return Err(format!("register failed: {}", line.trim()));
                }
                ok += 1;
            }
        }
        Ok(())
    }

    fn stop(self) -> ExitSummary {
        let _ = self.tx.send(r#"{"op":"shutdown"}"#.to_string());
        drop(self.tx);
        let summary = self
            .handle
            .join()
            .expect("daemon thread panicked")
            .expect("daemon exits cleanly");
        let _ = std::fs::remove_dir_all(&self.dir);
        summary
    }
}

/// A fresh checkpoint directory inside the checkout.
fn scratch_dir(tag: usize) -> PathBuf {
    PathBuf::from(".perfbench")
        .join("tmp")
        .join(format!("serve-{}-{tag}", std::process::id()))
}

/// What `setups` built and measured.
struct Setup {
    inputs: Inputs,
    /// Set-up samples, each the mean of the set-ups it repeated.
    times: Vec<f64>,
    /// `register` time per sample, likewise.
    register: Vec<f64>,
    /// Set-ups run in all.
    count: usize,
}

/// Takes `reps` set-up samples: each starts and registers a daemon
/// until `SETUP_SAMPLE_MIN` of set-up time has passed. Every daemon but
/// the last is shut down again, outside the timed part; the last is
/// returned running.
fn setups(
    seed: u64,
    reps: usize,
    tel: &Telemetry,
    tr: &mut Tracer,
    tag: &mut usize,
) -> Result<(Setup, Daemon), String> {
    let mut times = Vec::new();
    let mut register = Vec::new();
    let mut count = 0;
    let mut last = None;
    for _ in 0..reps {
        let (mut spent, mut spent_register, mut n) = (Duration::ZERO, Duration::ZERO, 0);
        while n == 0 || spent < SETUP_SAMPLE_MIN {
            if let Some((_, d)) = last.take() {
                Daemon::stop(d);
            }
            let start = Instant::now();
            let inputs = tr.span("circuits.build", || Inputs::build(seed));
            *tag += 1;
            let daemon = Daemon::start(scratch_dir(*tag), tel.clone());
            let r0 = Instant::now();
            let open = tr.begin("serve.register");
            daemon.register()?;
            tr.end(open);
            spent_register += r0.elapsed();
            spent += start.elapsed();
            n += 1;
            last = Some((inputs, daemon));
        }
        times.push(spent.as_secs_f64() / n as f64);
        register.push(spent_register.as_secs_f64() / n as f64);
        count += n;
    }
    let (inputs, daemon) = last.expect("reps >= 1");
    let setup = Setup {
        inputs,
        times,
        register,
        count,
    };
    Ok((setup, daemon))
}

struct Job {
    class: Class,
    slot: usize,
    submit: Instant,
    queued_since: Option<Instant>,
    running_since: Option<Instant>,
    wait: f64,
    run: f64,
    end: Option<Instant>,
    state: String,
    result: Option<Json>,
    resumed: bool,
    evictions: u32,
}

/// One measured window of the closed loop.
struct Window {
    start: Instant,
    /// End of the measured window: no job is submitted after it, and
    /// only jobs that ended before it count in the latency figures.
    deadline: Instant,
    jobs: Vec<Job>,
    wall: f64,
    /// Wall time with no job running on the worker.
    idle: f64,
    evictions: u64,
    retries: u64,
    rejected: u64,
    summary: ExitSummary,
    intervals: Vec<(&'static str, Instant, Instant)>,
}

fn run_window(inputs: &Inputs, daemon: Daemon, seconds: f64, out: &mut Outcome) -> Window {
    let mut jobs: Vec<Job> = Vec::new();
    let mut by_id: BTreeMap<String, usize> = BTreeMap::new();
    let mut pending_replies: VecDeque<usize> = VecDeque::new();
    let mut counts = [0usize; 2];
    let mut evictions = 0;
    let mut retries = 0;
    let mut rejected = 0;
    let mut intervals = Vec::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);

    let mut submit = |tenant: usize,
                      jobs: &mut Vec<Job>,
                      by_id: &mut BTreeMap<String, usize>,
                      pending: &mut VecDeque<usize>| {
        let n = counts[tenant];
        counts[tenant] += 1;
        let (class, slot) = if tenant == 0 {
            (Class::LongSynth, n % Class::LongSynth.pool())
        } else if n % 2 == 0 {
            (Class::ShortSynth, (n / 2) % POOL)
        } else {
            (Class::ShortSim, (n / 2) % POOL)
        };
        let id = format!("{}-{n}", class.tenant());
        let now = Instant::now();
        daemon.send(inputs.submit_line(&id, class, slot));
        by_id.insert(id, jobs.len());
        pending.push_back(jobs.len());
        jobs.push(Job {
            class,
            slot,
            submit: now,
            queued_since: Some(now),
            running_since: None,
            wait: 0.0,
            run: 0.0,
            end: None,
            state: String::new(),
            result: None,
            resumed: false,
            evictions: 0,
        });
    };
    submit(0, &mut jobs, &mut by_id, &mut pending_replies);
    submit(1, &mut jobs, &mut by_id, &mut pending_replies);

    let mut outstanding = 2;
    // Interactive jobs that ended since the batch client's last job did;
    // `None` while a batch job is outstanding.
    let mut batch_paused: Option<usize> = None;
    while outstanding > 0 {
        let limit = deadline + DRAIN_LIMIT;
        let (at, line) = match daemon
            .rx
            .recv_timeout(limit.saturating_duration_since(Instant::now()))
        {
            Ok(x) => x,
            Err(RecvTimeoutError::Timeout) if Instant::now() < limit => continue,
            Err(_) => {
                out.fail(format!(
                    "{outstanding} job(s) did not finish within the drain limit"
                ));
                break;
            }
        };
        let Ok(v) = Json::parse(&line) else {
            out.fail(format!("unparsable daemon line: {}", line.trim()));
            continue;
        };
        let mut terminal = None;
        if v.get("reply").and_then(Json::as_str) == Some("submit") {
            let k = pending_replies.pop_front().expect("a reply per submit");
            if v.get("ok").and_then(Json::as_bool) != Some(true) {
                jobs[k].state = "rejected".to_string();
                jobs[k].end = Some(at);
                terminal = Some(k);
            }
        } else if v.get("event").and_then(Json::as_str) == Some("job") {
            let id = v.get("id").and_then(Json::as_str).unwrap_or_default();
            let state = v.get("state").and_then(Json::as_str).unwrap_or_default();
            let Some(&k) = by_id.get(id) else { continue };
            let job = &mut jobs[k];
            match state {
                "running" => {
                    if let Some(q) = job.queued_since.take() {
                        job.wait += at.duration_since(q).as_secs_f64();
                        intervals.push(("serve.queue_wait", q, at));
                    }
                    job.running_since = Some(at);
                }
                "evicted" | "retried" => {
                    if state == "evicted" {
                        evictions += 1;
                        job.evictions += 1;
                    } else {
                        retries += 1;
                    }
                    if let Some(r) = job.running_since.take() {
                        job.run += at.duration_since(r).as_secs_f64();
                        intervals.push(("serve.run", r, at));
                    }
                    job.queued_since = Some(at);
                }
                "checkpoint-rejected" => rejected += 1,
                "queued" => {}
                _ => {
                    if let Some(r) = job.running_since.take() {
                        job.run += at.duration_since(r).as_secs_f64();
                        intervals.push(("serve.run", r, at));
                    }
                    job.state = state.to_string();
                    job.end = Some(at);
                    job.resumed = v.get("resumed").and_then(Json::as_bool) == Some(true);
                    job.result = v.get("result").cloned();
                    terminal = Some(k);
                }
            }
        }
        if let Some(k) = terminal {
            outstanding -= 1;
            let open = Instant::now() < deadline;
            if jobs[k].class == Class::LongSynth {
                batch_paused = Some(0);
            } else if open {
                submit(1, &mut jobs, &mut by_id, &mut pending_replies);
                outstanding += 1;
                if let Some(n) = batch_paused.as_mut() {
                    *n += 1;
                    if *n == BATCH_PAUSE_JOBS {
                        batch_paused = None;
                        submit(0, &mut jobs, &mut by_id, &mut pending_replies);
                        outstanding += 1;
                    }
                }
            }
        }
    }
    let tel = daemon.tel.clone();
    let summary = daemon.stop();
    let last = jobs.iter().filter_map(|j| j.end).max().unwrap_or(start);
    let wall = last.duration_since(start).as_secs_f64();
    let busy: f64 = jobs.iter().map(|j| j.run).sum();
    if tel.is_enabled() && tel.counter("serve.jobs_evicted") != evictions {
        out.fail("serve.jobs_evicted disagrees with the evicted events".to_string());
    }
    Window {
        start,
        deadline,
        jobs,
        wall,
        idle: (wall - busy).max(0.0),
        evictions,
        retries,
        rejected,
        summary,
        intervals,
    }
}

/// Checks every job of a window against the references. Returns the
/// deterministic counters each served input's jobs agreed on.
fn check_window(
    inputs: &Inputs,
    w: &Window,
    refs: &mut BTreeMap<(Class, usize), Reference>,
    out: &mut Outcome,
) -> BTreeMap<(Class, usize), Json> {
    let mut counters: BTreeMap<(Class, usize), Json> = BTreeMap::new();
    for (i, job) in w.jobs.iter().enumerate() {
        let class = job.class;
        out.attempted += 1;
        let key = (class, job.slot);
        let r = refs
            .entry(key)
            .or_insert_with(|| inputs.reference(class, job.slot));
        let result = job.result.as_ref();
        let get = |k: &str| result.and_then(|x| x.get(k));
        let ok = job.state == "done"
            && match class {
                Class::ShortSim => get("detected").and_then(Json::as_u64) == Some(r.detected),
                _ => {
                    get("omega").map(Json::render).as_deref() == Some(r.omega.as_str())
                        && get("detected").and_then(Json::as_u64) == Some(r.detected)
                        && get("targets").and_then(Json::as_u64) == Some(r.targets)
                }
            };
        if !ok {
            out.fail(format!(
                "job {i} ({class:?} slot {}, resumed {}): state `{}`, result differs from an uninterrupted run of the same inputs",
                job.slot, job.resumed, job.state
            ));
            continue;
        }
        let c = get("counters").cloned().unwrap_or(Json::Null);
        match counters.get(&key) {
            Some(first) if first.render() != c.render() => out.fail(format!(
                "job {i} ({class:?} slot {}): deterministic counters differ from another job with the same inputs",
                job.slot
            )),
            Some(_) => {}
            None => {
                counters.insert(key, c);
            }
        }
    }
    counters
}

/// Jobs that ended inside the measured window. Jobs still running when
/// it closes finish without the other tenant's load, so they are
/// checked but not timed.
fn in_window(w: &Window) -> impl Iterator<Item = &Job> {
    w.jobs
        .iter()
        .filter(|j| j.end.is_some_and(|e| e <= w.deadline))
}

fn latencies(w: &Window, pick: impl Fn(Class) -> bool) -> Vec<f64> {
    in_window(w)
        .filter(|j| pick(j.class))
        .filter_map(|j| Some(j.end?.duration_since(j.submit).as_secs_f64() * 1e3))
        .collect()
}

fn or_zero(v: &[f64], f: impl Fn(&[f64]) -> f64) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        f(v)
    }
}

fn end_to_end(w: &Window, refs: &BTreeMap<(Class, usize), Reference>, setup: &[f64]) -> Metrics {
    let synth: Vec<&Job> = w
        .jobs
        .iter()
        .filter(|j| j.state == "done" && j.class != Class::ShortSim)
        .collect();
    let field = |j: &Job, k: &str| {
        j.result
            .as_ref()
            .and_then(|r| r.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0) as f64
    };
    let detected: f64 = synth.iter().map(|j| field(j, "detected")).sum();
    let targets: f64 = synth.iter().map(|j| field(j, "targets")).sum();
    // Each distinct synthesis input counts once, so the figure does not
    // depend on how many times the window happened to serve it.
    let served: std::collections::BTreeSet<(Class, usize)> =
        synth.iter().map(|j| (j.class, j.slot)).collect();
    let pruned: Vec<f64> = served
        .iter()
        .filter_map(|key| refs.get(key))
        .map(|r| r.omega_pruned as f64)
        .collect();
    let short = latencies(w, |c| c != Class::LongSynth);
    let long = latencies(w, |c| c == Class::LongSynth);
    let window = w.deadline.duration_since(w.start).as_secs_f64();
    let mut m = Metrics::new();
    m.insert("setup_s", median(setup));
    m.insert("wall_s", w.wall);
    m.insert("coverage", ratio(detected, targets));
    m.insert("omega_pruned", or_zero(&pruned, mean));
    m.insert("serve_short_p50_ms", or_zero(&short, median));
    m.insert("serve_short_p90_ms", or_zero(&short, |v| quantile(v, 0.9)));
    m.insert("serve_long_p50_ms", or_zero(&long, median));
    m.insert(
        "serve_jobs_per_s",
        ratio(in_window(w).count() as f64, window),
    );
    m
}

fn per_layer(w: &Window, tel: &Telemetry, setup: &Setup, tr: &Tracer) -> Metrics {
    let wait: Vec<f64> = w.jobs.iter().map(|j| j.wait * 1e3).collect();
    let run: Vec<f64> = w.jobs.iter().map(|j| j.run * 1e3).collect();
    // The daemon exports each job's deterministic counters with its
    // result; the layer totals are their sums over the window.
    let mut sums: BTreeMap<String, f64> = BTreeMap::new();
    let mut synth_run = 0.0;
    for j in w.jobs.iter().filter(|j| j.state == "done") {
        if j.class != Class::ShortSim {
            synth_run += j.run;
        }
        let counters = j.result.as_ref().and_then(|r| r.get("counters"));
        for (k, v) in counters.and_then(Json::as_object).unwrap_or(&[]) {
            *sums.entry(k.clone()).or_default() += v.as_u64().unwrap_or(0) as f64;
        }
    }
    let s = |k: &str| sums.get(k).copied().unwrap_or(0.0);
    let tried = s("select.candidates_tried");
    let mut m = Metrics::new();
    for (name, value) in [
        (
            "circuits.build_s",
            tr.self_times()
                .get("circuits.build")
                .copied()
                .unwrap_or(0.0)
                / setup.count as f64,
        ),
        ("serve.register_s", median(&setup.register)),
        ("serve.queue_wait_p50_ms", or_zero(&wait, median)),
        (
            "serve.queue_wait_p90_ms",
            or_zero(&wait, |v| quantile(v, 0.9)),
        ),
        ("serve.run_p50_ms", or_zero(&run, median)),
        ("serve.evictions", tel.counter("serve.jobs_evicted") as f64),
        ("serve.resumes", tel.counter("serve.jobs_resumed") as f64),
        ("serve.retries", tel.counter("serve.jobs_retried") as f64),
        (
            "serve.checkpoints_rejected",
            tel.counter("serve.checkpoints_rejected") as f64,
        ),
        ("select.wall_s", synth_run),
        ("select.candidates_tried", tried),
        ("select.screen_calls", s("sim.screen_calls")),
        ("select.skip_ratio", ratio(s("select.sample_skips"), tried)),
        (
            "select.kept_ratio",
            ratio(s("select.assignments_kept"), tried),
        ),
        ("select.ns_per_candidate", ratio(synth_run * 1e9, tried)),
        ("sim.fault_cycles", s("sim.fault_cycles")),
        ("sim.gates_evaluated", s("sim.gates_evaluated")),
        ("unattributed_s", w.idle),
        ("unattributed_share", ratio(w.idle, w.wall)),
    ] {
        m.insert(name, value);
    }
    m
}

/// Tracing overhead per job: for each input both windows served, the
/// traced minus the untraced mean time on the worker, averaged over the
/// inputs. A window's own length is fixed by `--seconds`, so it is the
/// work per job that tracing can change.
fn run_overhead(untraced: &Window, traced: &Window) -> f64 {
    let by_input = |w: &Window| {
        let mut m: BTreeMap<(Class, usize), Vec<f64>> = BTreeMap::new();
        for j in w.jobs.iter().filter(|j| j.state == "done") {
            m.entry((j.class, j.slot)).or_default().push(j.run);
        }
        m
    };
    let (a, b) = (by_input(untraced), by_input(traced));
    let diffs: Vec<f64> = a
        .iter()
        .filter_map(|(key, u)| Some(mean(b.get(key)?) - mean(u)))
        .collect();
    mean(&diffs)
}

pub fn run(args: &Args, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut refs = BTreeMap::new();
    let mut tag = 0;
    let mut windows = Vec::new();
    // Traced runs measure an untraced window first, for the overhead.
    let passes: &[bool] = if args.trace { &[false, true] } else { &[false] };
    for &traced in passes {
        let tel = if traced {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        let reps = if args.trace && !traced { 1 } else { SETUP_REPS };
        let mut off = Tracer::new(false, Instant::now());
        let t = if traced { &mut *tr } else { &mut off };
        let (setup, daemon) = match setups(args.seed, reps, &tel, t, &mut tag) {
            Ok(x) => x,
            Err(e) => {
                out.fail(format!("daemon set-up: {e}"));
                out.attempted += 1;
                return out;
            }
        };
        let w = run_window(&setup.inputs, daemon, args.seconds, &mut out);
        let counters = check_window(&setup.inputs, &w, &mut refs, &mut out);
        if traced {
            for &(name, a, b) in &w.intervals {
                tr.record(name, a, b);
            }
            // Ledger entries in a fixed (class, slot) order; an input the
            // window did not serve gets an empty entry, which the ledger
            // skips.
            for class in [Class::LongSynth, Class::ShortSynth, Class::ShortSim] {
                for slot in 0..class.pool() {
                    let entry = counters.get(&(class, slot)).and_then(Json::as_object);
                    out.unit_counters.push(
                        entry
                            .unwrap_or(&[])
                            .iter()
                            .map(|(k, v)| (k.clone(), v.as_u64().unwrap_or(0)))
                            .collect(),
                    );
                }
            }
        }
        if w.summary.truncated {
            out.fail("the daemon left work behind at shutdown".to_string());
        }
        windows.push((w, tel, setup));
    }

    if args.seed == DEFAULT_SEED {
        for &(class, omega, pruned, detected, targets, guaranteed) in &PINNED {
            let r = refs
                .get(&(class, 0))
                .cloned()
                .unwrap_or_else(|| windows[0].2.inputs.reference(class, 0));
            let got = (
                r.omega_len,
                r.omega_pruned,
                r.detected,
                r.targets,
                r.coverage_guaranteed,
            );
            if got != (omega, pruned, detected, targets, guaranteed) {
                out.fail(format!(
                    "{class:?} slot 0 reference gives {got:?}, pinned {:?}",
                    (omega, pruned, detected, targets, guaranteed)
                ));
            }
        }
    }

    let (w, tel, setup) = windows.last().expect("one window per pass");
    if args.trace {
        out.metrics = per_layer(w, tel, setup, tr);
        out.metrics
            .insert("trace.overhead_s", run_overhead(&windows[0].0, w));
    } else {
        out.metrics = end_to_end(w, &refs, &setup.times);
    }
    let list = |v: &[f64]| Json::Array(v.iter().map(|&x| Json::Float(x)).collect());
    out.detail.push(("setup_s", list(&setup.times)));
    out.detail.push((
        "job_log",
        Json::Array(
            w.jobs
                .iter()
                .map(|j| {
                    let ms = |t: Option<Instant>| {
                        t.map_or(Json::Null, |t| {
                            Json::Float(t.saturating_duration_since(w.start).as_secs_f64() * 1e3)
                        })
                    };
                    Json::obj(vec![
                        ("class", format!("{:?}", j.class).as_str().into()),
                        ("state", j.state.as_str().into()),
                        ("slot", j.slot.into()),
                        ("submit_ms", ms(Some(j.submit))),
                        ("end_ms", ms(j.end)),
                        ("wait_ms", Json::Float(j.wait * 1e3)),
                        ("run_ms", Json::Float(j.run * 1e3)),
                        ("resumed", j.resumed.into()),
                        ("evictions", u64::from(j.evictions).into()),
                    ])
                })
                .collect(),
        ),
    ));
    out.detail.push(("evictions", w.evictions.into()));
    out.detail.push(("retries", w.retries.into()));
    out.detail.push(("checkpoints_rejected", w.rejected.into()));
    out
}
