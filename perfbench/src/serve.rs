//! The served path: the release `threefive serve` daemon as a child
//! process, a closed loop of tenant connections against it, and the
//! in-process probes of the service layers (codec, queue, lease, job
//! runner).

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use threefive::serve::protocol::{
    decode_request, decode_response, encode_response, encode_solve, read_frame, write_frame,
};
use threefive::serve::{
    AdmissionQueue, Completed, JobRunner, JobSpec, Popped, QueuedJob, Request, Response,
    ServiceClient, Workload, PRIORITIES,
};
use threefive::serve_runner::{grid_checksum, job_grid, reference_checksum};
use threefive::sync::{TeamPool, ThreadTeam};
use threefive::SolverRunner;

use crate::measure::{median, splitmix64, Spans, Tally};

/// Tenant connections of the closed loop; each keeps one job outstanding.
pub const TENANTS: usize = 2;

/// How long any client call or daemon shutdown may take before the run
/// declares the daemon hung.
const HANG: Duration = Duration::from_secs(30);

/// Grid edges and step counts of served jobs: n ∈ [24, 48], steps ∈ [4, 12].
const EDGES: std::ops::RangeInclusive<usize> = 24..=48;
const STEPS: std::ops::RangeInclusive<usize> = 4..=12;

/// The `k`-th job of the seed's stream: a stencil spec with tile = n,
/// dim_T 2 and rotating priorities. Every block of consecutive jobs holds
/// each (n, steps) pair exactly once, in an order drawn from the seed, so
/// every seed offers the same mix of sizes.
pub fn spec_for(seed: u64, k: usize) -> JobSpec {
    let (edges, steps) = (EDGES.count(), STEPS.count());
    let block = edges * steps;
    let mut order: Vec<usize> = (0..block).collect();
    let mut s = seed ^ ((k / block) as u64).wrapping_mul(0xd1b5_4a32_d192_ed03);
    for i in (1..block).rev() {
        order.swap(i, (splitmix64(&mut s) % (i as u64 + 1)) as usize);
    }
    let pair = order[k % block];
    let n = EDGES.start() + pair % edges;
    JobSpec {
        workload: Workload::Stencil,
        n,
        steps: STEPS.start() + pair / edges,
        dim_t: 2,
        tile: n,
        deadline: HANG,
        priority: (k % PRIORITIES) as u8,
    }
}

/// The part of a spec that determines the result.
pub fn result_key(spec: &JobSpec) -> (usize, usize) {
    (spec.n, spec.steps)
}

/// The first `count` distinct specs (by result) of the seed's stream.
pub fn sample_specs(seed: u64, count: usize) -> Vec<JobSpec> {
    let mut seen = BTreeSet::new();
    (0..)
        .map(|k| spec_for(seed, k))
        .filter(|s| seen.insert(result_key(s)))
        .take(count)
        .collect()
}

/// A `threefive serve` child process: one team of `threads` threads and
/// one dispatcher on an ephemeral loopback port.
pub struct Daemon {
    child: Option<Child>,
    /// The address the daemon listens on.
    pub addr: String,
    log: Option<JoinHandle<Vec<String>>>,
}

impl Daemon {
    /// Spawns the daemon and waits until it prints its listen address.
    pub fn spawn(bin: &Path, threads: usize) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--teams",
                "1",
                "--dispatchers",
                "1",
            ])
            .args(["--threads", &threads.to_string(), "--quiet"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Drains the daemon's stderr until it exits, so it never blocks on
        // a full pipe; the first listen line carries the address.
        let log = thread::spawn(move || {
            let mut lines = Vec::new();
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(rest) = line.split("listening on ").nth(1) {
                    let _ = tx.send(rest.split_whitespace().next().unwrap_or("").to_string());
                }
                if lines.len() < 100 {
                    lines.push(line);
                }
            }
            lines
        });
        let mut daemon = Daemon {
            child: Some(child),
            addr: String::new(),
            log: Some(log),
        };
        daemon.addr = rx
            .recv_timeout(HANG)
            .map_err(|_| "the daemon printed no listen address".to_string())?;
        Ok(daemon)
    }

    /// Pings until the first success.
    pub fn wait_ready(&self) -> Result<(), String> {
        let give_up = Instant::now() + HANG;
        loop {
            let attempt = ServiceClient::connect(&self.addr)
                .map_err(|e| e.to_string())
                .and_then(|mut c| {
                    c.set_timeout(Some(HANG)).map_err(|e| e.to_string())?;
                    c.ping().map_err(|e| e.to_string())
                });
            match attempt {
                Ok(()) => return Ok(()),
                Err(e) if Instant::now() > give_up => return Err(format!("never ready: {e}")),
                Err(_) => thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    /// The daemon's process id, as `/proc` names it.
    pub fn pid(&self) -> String {
        self.child.as_ref().map_or(0, Child::id).to_string()
    }

    /// Drains the daemon with SIGTERM and checks that it exits 0. A daemon
    /// that does not exit in time is killed and reported as hung.
    pub fn stop(mut self) -> Result<(), String> {
        let mut child = self.child.take().expect("a live daemon has a child");
        let verdict = match sigterm(child.id()) {
            Err(e) => Err(format!("SIGTERM: {e}")),
            Ok(()) => {
                let give_up = Instant::now() + HANG;
                loop {
                    match child.try_wait() {
                        Ok(Some(status)) if status.success() => break Ok(()),
                        Ok(Some(status)) => break Err(format!("daemon exited with {status}")),
                        Ok(None) if Instant::now() < give_up => {
                            thread::sleep(Duration::from_millis(2))
                        }
                        Ok(None) => break Err("daemon did not drain after SIGTERM".to_string()),
                        Err(e) => break Err(format!("wait: {e}")),
                    }
                }
            }
        };
        let _ = child.kill();
        let _ = child.wait();
        let log = self.log.take().map(|h| h.join().unwrap_or_default());
        verdict.map_err(|e| format!("{e}; daemon log: {:?}", log.unwrap_or_default()))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(log) = self.log.take() {
            let _ = log.join();
        }
    }
}

/// Sends SIGTERM to a child that has not been reaped yet.
fn sigterm(pid: u32) -> Result<(), String> {
    const SIGTERM: i32 = 15;
    extern "C" {
        // kill(2): int kill(pid_t pid, int sig).
        fn kill(pid: i32, sig: i32) -> i32;
    }
    let pid = i32::try_from(pid).map_err(|_| format!("pid {pid} out of range"))?;
    // SAFETY: `kill` is the libc function of that name, which every unix
    // process links; it takes two integers and touches no memory of ours.
    // The pid is our own child's and the child has not been reaped, so the
    // pid cannot have been reused by another process.
    if unsafe { kill(pid, SIGTERM) } == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error().to_string())
    }
}

/// One job of the closed loop, as the client saw it.
#[derive(Clone)]
pub struct Job {
    /// Position in the seed's stream.
    pub k: usize,
    /// The spec sent.
    pub spec: JobSpec,
    /// Client send time.
    pub start: Instant,
    /// Client reply time.
    pub end: Instant,
    /// The reply's `exec_ms` (NaN unless done).
    pub exec_ms: f64,
    /// The reply's checksum, or why there is none.
    pub result: Result<u64, String>,
}

impl Job {
    /// Client send-to-reply time in ms.
    pub fn latency_ms(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e3
    }
}

/// Runs the closed loop for `seconds` and until at least `min_jobs`
/// replies arrived: `TENANTS` connections, each sending its next job of
/// the stream only after the previous reply. A wire error ends that
/// tenant (the daemon crashed or hung); the returned errors are
/// connection-level failures.
pub fn closed_loop(
    addr: &str,
    seed: u64,
    next: &AtomicUsize,
    seconds: f64,
    min_jobs: usize,
) -> (Vec<Job>, Vec<String>) {
    let stop_at = Instant::now() + Duration::from_secs_f64(seconds);
    let replies = AtomicUsize::new(0);
    let replies = &replies;
    let more = move || {
        let now = Instant::now();
        // ORDERING: Relaxed — a progress count; no data is published.
        (now < stop_at || replies.load(Ordering::Relaxed) < min_jobs) && now < stop_at + HANG
    };
    thread::scope(|s| {
        let tenants: Vec<_> = (0..TENANTS)
            .map(|_| s.spawn(move || tenant(addr, seed, next, replies, more)))
            .collect();
        let mut jobs = Vec::new();
        let mut errors = Vec::new();
        for t in tenants {
            match t.join() {
                Ok((j, e)) => {
                    jobs.extend(j);
                    errors.extend(e);
                }
                Err(_) => errors.push("tenant thread panicked".to_string()),
            }
        }
        jobs.sort_by_key(|j| j.k);
        (jobs, errors)
    })
}

fn tenant(
    addr: &str,
    seed: u64,
    next: &AtomicUsize,
    replies: &AtomicUsize,
    more: impl Fn() -> bool,
) -> (Vec<Job>, Option<String>) {
    let mut client = match ServiceClient::connect(addr) {
        Ok(c) => c,
        Err(e) => return (Vec::new(), Some(format!("connect: {e}"))),
    };
    if let Err(e) = client.set_timeout(Some(HANG)) {
        return (Vec::new(), Some(format!("set timeout: {e}")));
    }
    let mut jobs = Vec::new();
    while more() {
        // ORDERING: Relaxed — a ticket counter; no data is published.
        let k = next.fetch_add(1, Ordering::Relaxed);
        let spec = spec_for(seed, k);
        let start = Instant::now();
        let reply = client.solve(&spec);
        let end = Instant::now();
        // ORDERING: Relaxed — a progress count; no data is published.
        replies.fetch_add(1, Ordering::Relaxed);
        let (exec_ms, result, wire_error) = match reply {
            Ok(Response::Done { completed, .. }) => {
                (completed.exec_ms, Ok(completed.checksum), false)
            }
            Ok(other) => (f64::NAN, Err(format!("{other:?}")), false),
            Err(e) => (f64::NAN, Err(format!("wire error: {e}")), true),
        };
        jobs.push(Job {
            k,
            spec,
            start,
            end,
            exec_ms,
            result,
        });
        if wire_error {
            break;
        }
    }
    (jobs, None)
}

/// Scalar-reference checksums of every distinct spec in `jobs`,
/// computed outside any timed region.
pub fn references(jobs: &[Job]) -> BTreeMap<(usize, usize), u64> {
    let mut refs = BTreeMap::new();
    for j in jobs {
        refs.entry(result_key(&j.spec))
            .or_insert_with(|| reference_checksum(&j.spec));
    }
    refs
}

/// Counts every job, failed unless done with the reference checksum.
pub fn verify(jobs: &[Job], refs: &BTreeMap<(usize, usize), u64>, tally: &mut Tally) {
    for j in jobs {
        let (n, steps) = result_key(&j.spec);
        tally.check(
            &format!("job {} (n={n}, steps={steps})", j.k),
            j.result.clone(),
            refs[&(n, steps)],
        );
    }
}

/// Share of jobs whose result-determining spec repeats an earlier job's:
/// the hit ceiling of any result cache on this stream.
pub fn repeat_frac<'a>(specs: impl IntoIterator<Item = &'a JobSpec>) -> f64 {
    let mut seen = BTreeSet::new();
    let (mut all, mut repeats) = (0usize, 0usize);
    for spec in specs {
        all += 1;
        repeats += usize::from(!seen.insert(result_key(spec)));
    }
    repeats as f64 / all.max(1) as f64
}

/// Median client round trip of an idle `ping`, in µs.
pub fn ping_rtt_us(addr: &str, tally: &mut Tally) -> f64 {
    let mut rtts = Vec::new();
    match ServiceClient::connect(addr) {
        Err(e) => tally.record(Some(format!("ping connect: {e}"))),
        Ok(mut c) => {
            let _ = c.set_timeout(Some(HANG));
            for _ in 0..200 {
                let t = Instant::now();
                let r = c.ping();
                rtts.push(t.elapsed().as_secs_f64() * 1e6);
                tally.record(r.err().map(|e| format!("ping: {e}")));
            }
        }
    }
    median(&rtts)
}

/// Mean µs to encode, frame, unframe and decode one solve request and
/// one done reply, in memory.
pub fn codec_us(seed: u64, tally: &mut Tally) -> f64 {
    const ROUNDS: u32 = 2000;
    let spec = spec_for(seed, 0);
    let reply = Response::Done {
        job_id: 7,
        completed: Completed {
            rung: "parallel 3.5-D".into(),
            downgrades: 0,
            checksum: 0x0123_4567_89ab_cdef,
            barrier_share: Some(0.125),
            exec_ms: 1.5,
        },
    };
    let mut ok = true;
    let t = Instant::now();
    for _ in 0..ROUNDS {
        let mut buf = Vec::new();
        let req = write_frame(&mut buf, &encode_solve(&spec))
            .and_then(|()| read_frame(&mut buf.as_slice()))
            .and_then(|doc| decode_request(&doc));
        ok &= matches!(req, Ok(Request::Solve(ref s)) if *s == spec);
        buf.clear();
        let resp = write_frame(&mut buf, &encode_response(&reply))
            .and_then(|()| read_frame(&mut buf.as_slice()))
            .and_then(|doc| decode_response(&doc));
        ok &= matches!(resp, Ok(ref r) if *r == reply);
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / f64::from(ROUNDS);
    tally.record((!ok).then(|| "codec round trip changed a message".into()));
    us
}

/// Mean µs of one admission-queue push plus pop.
pub fn queue_push_pop_us(seed: u64, tally: &mut Tally) -> f64 {
    const ROUNDS: u64 = 10_000;
    let queue = AdmissionQueue::new(64);
    let spec = spec_for(seed, 0);
    let mut ok = true;
    let t = Instant::now();
    for id in 0..ROUNDS {
        let job = QueuedJob {
            id,
            spec: spec.clone(),
            admitted_at: Instant::now(),
            reply_to: 0,
        };
        ok &= queue.push(job).is_ok();
        ok &= matches!(queue.pop(Duration::ZERO), Popped::Job(j) if j.id == id);
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64;
    tally.record((!ok).then(|| "admission queue lost or reordered a job".into()));
    us
}

/// Mean µs of one `TeamPool` checkout plus checkin.
pub fn pool_lease_us(threads: usize, tally: &mut Tally) -> f64 {
    const ROUNDS: u32 = 2000;
    let pool = TeamPool::new(1, threads);
    let mut ok = true;
    let t = Instant::now();
    for _ in 0..ROUNDS {
        ok &= pool.checkout(HANG).is_some();
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / f64::from(ROUNDS);
    tally.record((!ok).then(|| "team pool refused a checkout".into()));
    us
}

/// What the job runner layer costs per served job, in ms: seed grid,
/// checksum and the whole `SolverRunner::run` on a leased team.
pub struct RunnerCosts {
    pub seed_grid_ms: f64,
    pub checksum_ms: f64,
    pub run_ms: f64,
}

/// Times the job runner on each of `specs` (means per job), checking
/// every checksum against the scalar reference.
pub fn runner_costs(
    specs: &[JobSpec],
    threads: usize,
    spans: &mut Spans,
    parent: Option<usize>,
    tally: &mut Tally,
) -> RunnerCosts {
    let pool = TeamPool::new(1, threads);
    let runner = SolverRunner::new(false);
    let (mut seed, mut sum, mut run) = (Vec::new(), Vec::new(), Vec::new());
    for (id, spec) in specs.iter().enumerate() {
        let (grid, t) = spans.time("serve_runner.seed_grid", parent, || job_grid(spec.n));
        seed.push(t);
        sum.push(
            spans
                .time("serve_runner.checksum", parent, || grid_checksum(&grid))
                .1,
        );
        let want = reference_checksum(spec);
        let Some(lease) = pool.checkout(HANG) else {
            tally.record(Some("team pool refused a checkout".into()));
            continue;
        };
        let team: &ThreadTeam = lease.team();
        let (out, t) = spans.time("serve_runner.run", parent, || {
            runner.run(spec, team, HANG, id as u64)
        });
        run.push(t);
        tally.check(
            "SolverRunner::run",
            out.result.map(|c| c.checksum).map_err(|e| e.to_string()),
            want,
        );
    }
    let ms = |v: &[f64]| crate::measure::mean(v) * 1e3;
    RunnerCosts {
        seed_grid_ms: ms(&seed),
        checksum_ms: ms(&sum),
        run_ms: ms(&run),
    }
}
