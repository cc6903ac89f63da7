//! The three workloads, each as an untraced run (end-to-end metrics) and
//! a traced run (per-layer metrics).

use std::path::PathBuf;
use std::sync::atomic::AtomicUsize;
use std::time::Instant;

use threefive::sync::{Observer, SpinBarrier, ThreadTeam};

use crate::host::{self, Sample};
use crate::measure::{median, percentile, Spans, Tally};

use crate::serve::{self, Daemon, Job};
use crate::solve::{probe_layers, Layers, Problem, Stencil};

/// Run parameters from the command line.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The release `threefive` binary.
    pub daemon: PathBuf,
}

/// Everything one run measured.
pub struct Outcome {
    /// Metric name → value; units come from the metric table.
    pub metrics: Vec<(&'static str, f64)>,
    pub tally: Tally,
    /// Whether a deliberately corrupted copy of a result was counted as
    /// failed.
    pub selftest: Result<String, String>,
    /// The host context line.
    pub context: String,
    pub spans: Spans,
    /// Sample counts and other remarks for the log.
    pub notes: Vec<String>,
}

/// Solves a run repeats at least, however short `--seconds` is.
const MIN_SOLVES: usize = 3;
/// Daemon spawns per untraced serve run; the median is `setup_s`.
const SPAWNS: usize = 21;
/// Daemon sessions the untraced serve window is split into; each serves
/// at least `MIN_JOBS` jobs, and the run reports medians across them.
const SESSIONS: usize = 6;
/// Unmeasured warm-up of each session: the daemon's first jobs grow its
/// heaps.
const WARMUP_S: f64 = 0.25;
/// Distinct served specs the traced runs time layer by layer.
const SAMPLE_SPECS: usize = 8;
/// Served jobs below which p99 has fewer than ten samples beyond it.
const MIN_JOBS: usize = 1000;

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |c| c.get())
}

/// Measures the result check itself: a copy of a correct result with one
/// bit flipped must count as a failed operation.
fn selftest(what: &str, corrupted: u64, want: u64) -> Result<String, String> {
    let mut scratch = Tally::default();
    scratch.check(what, Ok(corrupted), want);
    if scratch.failed == 1 {
        Ok(format!(
            "a corrupted copy of the {what} result was counted as failed"
        ))
    } else {
        Err(format!(
            "a corrupted copy of the {what} result passed the check"
        ))
    }
}

/// Measures the served-job check itself: the benchmark's copy of the job
/// list, with one done job's checksum flipped, must go through
/// `serve::references` and `serve::verify` as exactly one failed
/// operation.
fn serve_selftest(jobs: &[Job]) -> Result<String, String> {
    let mut copy = jobs.to_vec();
    let Some(job) = copy.iter_mut().find(|j| j.result.is_ok()) else {
        return Err("no served job came back done".into());
    };
    if let Ok(checksum) = &mut job.result {
        *checksum ^= 1;
    }
    let mut scratch = Tally::default();
    serve::verify(&copy, &serve::references(&copy), &mut scratch);
    if scratch.failed == 1 {
        Ok(format!(
            "a corrupted copy of one of {} served results was the one failure",
            copy.len()
        ))
    } else {
        Err(format!(
            "a job list with one corrupted served result gave {} failures",
            scratch.failed
        ))
    }
}

/// Set-up as a user pays it: allocate and seed the input, plan, and
/// spawn the team.
fn setup<P: Problem>(
    p: &P,
    spans: &mut Spans,
    parent: Option<usize>,
) -> (P::State, P::Plan, ThreadTeam, f64) {
    let open = spans.open("setup", parent);
    let st = p.build();
    let plan = p.plan();
    let team = ThreadTeam::new(nproc());
    (st, plan, team, spans.close(open))
}

/// A solve workload: set-up, ladder call, check, repeated for the
/// window; or, traced, every layer probe once.
pub fn run_solve<P: Problem>(p: &P, cfg: &Config) -> Outcome {
    let mut spans = Spans::new(cfg.trace);
    let mut tally = Tally::default();
    let root = spans.open("run", None);
    let rid = root.id();
    let mut setup_s = Vec::new();

    let (mut st, _, team, t) = setup(p, &mut spans, rid);
    setup_s.push(t);
    drop(team);
    spans.time("reference", rid, || p.reference(&mut st));
    let want = P::digest(&st);
    drop(st);

    let before = host::sample("self");
    let mut notes = Vec::new();
    let (metrics, mut last) = if cfg.trace {
        let team = spans.time("setup", rid, || ThreadTeam::new(nproc())).0;
        let (layers, st) = probe_layers(p, &team, want, &mut spans, rid, &mut tally);
        let sync = sync_probes(&team, &mut spans, rid, &mut tally);
        drop(team);
        let svc = serve_probes(cfg, 2.0, &mut spans, rid, &mut tally);
        let peak = host::peak_rss_mb("self").unwrap_or(f64::NAN);
        let metrics = per_layer(
            &layers,
            &sync,
            &svc,
            [layers.residual_frac(), layers.trace_overhead_frac(), peak],
        );
        (metrics, st)
    } else {
        let window = Instant::now();
        let mut solve_s = Vec::new();
        let mut last: Option<P::State> = None;
        loop {
            // The previous result is dropped before the next set-up, so a
            // run never holds two problems at once.
            drop(last.take());
            let (mut st, plan, team, t) = setup(p, &mut spans, rid);
            setup_s.push(t);
            let (res, t) = spans.time("solve", rid, || {
                p.solve(&mut st, plan, &team, &Observer::disabled())
            });
            solve_s.push(t);
            tally.check("solve", res.map(|_| P::digest(&st)), want);
            last = Some(st);
            if window.elapsed().as_secs_f64() >= cfg.seconds && solve_s.len() >= MIN_SOLVES {
                break;
            }
        }
        notes.push(format!(
            "{} set-ups, {} solves",
            setup_s.len(),
            solve_s.len()
        ));
        // One solve at a time: throughput is the inverse of the median
        // solve, which one slow call cannot move.
        let metrics = vec![
            ("setup_s", median(&setup_s)),
            ("mups", p.updates() as f64 / median(&solve_s) / 1e6),
            ("jobs_per_s", 1.0 / median(&solve_s)),
            ("latency_p50_ms", median(&solve_s) * 1e3),
            ("latency_p99_ms", percentile(&solve_s, 99.0) * 1e3),
        ];
        notes.push(format!(
            "peak RSS {:.3} MB",
            host::peak_rss_mb("self").unwrap_or(f64::NAN)
        ));
        (metrics, last.expect("at least one solve ran"))
    };
    let after = host::sample("self");
    P::corrupt(&mut last);
    let selftest = selftest("solve", P::digest(&last), want);
    spans.close(root);
    Outcome {
        metrics,
        tally,
        selftest,
        context: host::context_json(&before, &after),
        spans,
        notes,
    }
}

/// What the synchronisation probes measured.
pub struct SyncProbes {
    pub episode_ns: f64,
    pub pool_lease_us: f64,
}

/// Empty barrier episodes on `team`, and pool checkout plus checkin.
fn sync_probes(
    team: &ThreadTeam,
    spans: &mut Spans,
    rid: Option<usize>,
    tally: &mut Tally,
) -> SyncProbes {
    const EPISODES: u32 = 20_000;
    let barrier = SpinBarrier::new(team.threads());
    let (res, t) = spans.time("sync.episodes", rid, || {
        team.try_run(|_| {
            for _ in 0..EPISODES {
                barrier.wait();
            }
        })
    });
    tally.record(res.err().map(|e| format!("empty barrier episodes: {e}")));
    let pool_lease_us = spans
        .time("sync.pool_lease", rid, || {
            serve::pool_lease_us(team.threads(), tally)
        })
        .0;
    SyncProbes {
        episode_ns: t * 1e9 / f64::from(EPISODES),
        pool_lease_us,
    }
}

/// One daemon's closed-loop session.
struct Session {
    jobs: Vec<Job>,
    /// The measured loop; `None` if the daemon died during the warm-up.
    phase: Option<Phase>,
    /// The daemon crashed or hung mid-session.
    wire_failed: bool,
    ping_rtt_us: f64,
    /// The daemon's `VmHWM` (MB).
    peak_rss_mb: f64,
    before: Sample,
    after: Sample,
}

/// The measured closed loop of a session.
struct Phase {
    wall_s: f64,
    /// Latencies (ms) of the jobs that came back done.
    done_ms: Vec<f64>,
    /// Interior cell updates of those jobs.
    updates: f64,
    /// Time spent recording the jobs' spans (0 when untraced).
    trace_s: f64,
}

impl Phase {
    fn mups(&self) -> f64 {
        self.updates / self.wall_s / 1e6
    }

    fn jobs_per_s(&self) -> f64 {
        self.done_ms.len() as f64 / self.wall_s
    }
}

/// Spawns the daemon and times spawn to first successful ping.
fn start_daemon(
    cfg: &Config,
    spans: &mut Spans,
    rid: Option<usize>,
    tally: &mut Tally,
) -> Option<(Daemon, f64)> {
    let open = spans.open("setup.daemon", rid);
    let d = Daemon::spawn(&cfg.daemon, nproc()).and_then(|d| d.wait_ready().map(|()| d));
    let t = spans.close(open);
    tally.record(d.as_ref().err().map(|e| format!("daemon start: {e}")));
    d.ok().map(|d| (d, t))
}

/// Drains the daemon with SIGTERM and counts a failed or hung drain.
fn stop_daemon(daemon: Daemon, spans: &mut Spans, rid: Option<usize>, tally: &mut Tally) {
    let (stopped, _) = spans.time("serve.drain", rid, || daemon.stop());
    tally.record(stopped.err().map(|e| format!("daemon stop: {e}")));
}

/// Optionally pings `daemon`, runs an unmeasured warm-up loop of
/// `warmup_s`, runs the measured closed loop for `seconds` and until at
/// least `min_jobs` replies, and drains it. Every job is checked against
/// the scalar reference.
#[allow(clippy::too_many_arguments)]
fn session(
    cfg: &Config,
    daemon: Daemon,
    ping: bool,
    warmup_s: f64,
    seconds: f64,
    min_jobs: usize,
    next: &AtomicUsize,
    spans: &mut Spans,
    rid: Option<usize>,
    tally: &mut Tally,
) -> Session {
    let ping_rtt_us = if ping {
        spans
            .time("serve.ping", rid, || {
                serve::ping_rtt_us(&daemon.addr, tally)
            })
            .0
    } else {
        f64::NAN
    };
    let pid = daemon.pid();
    let mut jobs = Vec::new();
    // Returns the loop's jobs and whether the daemon crashed or hung,
    // which ends the session.
    let run_loop = |seconds: f64, min_jobs: usize, tally: &mut Tally| {
        let (loop_jobs, errors) =
            serve::closed_loop(&daemon.addr, cfg.seed, next, seconds, min_jobs);
        for e in errors {
            tally.record(Some(e));
        }
        let wire_failed = loop_jobs
            .iter()
            .any(|j| matches!(&j.result, Err(e) if e.starts_with("wire")));
        (loop_jobs, wire_failed)
    };
    let mut wire_failed = false;
    if warmup_s > 0.0 {
        let open = spans.open("serve.warmup", rid);
        let (warm, failed) = run_loop(warmup_s, 0, tally);
        spans.close(open);
        jobs.extend(warm);
        wire_failed = failed;
    }
    let before = host::sample(&pid);
    let mut phase = None;
    if !wire_failed {
        let open = spans.open("serve.closed_loop", rid);
        let parent = open.id();
        let (loop_jobs, failed) = run_loop(seconds, min_jobs, tally);
        wire_failed = failed;
        let wall_s = spans.close(open);
        // Each job was timed on its tenant thread; a traced run records
        // its span only now, after the loop, so tracing costs the served
        // jobs nothing and its whole cost is this recording.
        let mut trace_s = 0.0;
        if spans.enabled() {
            let t = Instant::now();
            for j in &loop_jobs {
                spans.push("serve.job", parent, j.start, j.end);
            }
            trace_s = t.elapsed().as_secs_f64();
        }
        let mut done_ms = Vec::new();
        let mut updates = 0.0;
        for j in loop_jobs.iter().filter(|j| j.result.is_ok()) {
            done_ms.push(j.latency_ms());
            let p = Stencil::served(j.spec.n, j.spec.steps, j.spec.tile, j.spec.dim_t);
            updates += p.updates() as f64;
        }
        phase = Some(Phase {
            wall_s,
            done_ms,
            updates,
            trace_s,
        });
        jobs.extend(loop_jobs);
    }
    let after = host::sample(&pid);
    let peak_rss_mb = host::peak_rss_mb(&pid).unwrap_or(f64::NAN);
    stop_daemon(daemon, spans, rid, tally);
    let refs = spans.time("reference", rid, || serve::references(&jobs)).0;
    serve::verify(&jobs, &refs, tally);
    Session {
        jobs,
        phase,
        wire_failed,
        ping_rtt_us,
        peak_rss_mb,
        before,
        after,
    }
}

/// The service layers' per-layer numbers.
pub struct ServeProbes {
    pub runner: serve::RunnerCosts,
    pub codec_us: f64,
    pub queue_push_pop_us: f64,
    pub ping_rtt_us: f64,
    pub exec_ms_p50: f64,
    pub outside_exec_ms_p50: f64,
    pub repeat_frac: f64,
    /// Median latency of the measured loop (ms).
    pub loop_p50_ms: f64,
    /// Span recording time over the measured loop's wall time.
    pub trace_overhead_frac: f64,
    /// Every job sent, warm-up included.
    pub jobs: Vec<Job>,
    /// The daemon's `VmHWM` (MB).
    pub peak_rss_mb: f64,
}

fn serve_probes(
    cfg: &Config,
    seconds: f64,
    spans: &mut Spans,
    rid: Option<usize>,
    tally: &mut Tally,
) -> ServeProbes {
    let next = AtomicUsize::new(0);
    let s = start_daemon(cfg, spans, rid, tally)
        .map(|(d, _)| session(cfg, d, true, 0.0, seconds, 0, &next, spans, rid, tally));
    let specs = serve::sample_specs(cfg.seed, SAMPLE_SPECS);
    let runner = serve::runner_costs(&specs, nproc(), spans, rid, tally);
    let codec_us = spans
        .time("serve.codec", rid, || serve::codec_us(cfg.seed, tally))
        .0;
    let queue_push_pop_us = spans
        .time("serve.queue", rid, || {
            serve::queue_push_pop_us(cfg.seed, tally)
        })
        .0;
    let done: Vec<&Job> = s
        .iter()
        .flat_map(|s| &s.jobs)
        .filter(|j| j.result.is_ok())
        .collect();
    let exec: Vec<f64> = done.iter().map(|j| j.exec_ms).collect();
    let outside: Vec<f64> = done.iter().map(|j| j.latency_ms() - j.exec_ms).collect();
    let phase = s.as_ref().and_then(|s| s.phase.as_ref());
    ServeProbes {
        runner,
        codec_us,
        queue_push_pop_us,
        ping_rtt_us: s.as_ref().map_or(f64::NAN, |s| s.ping_rtt_us),
        exec_ms_p50: median(&exec),
        outside_exec_ms_p50: median(&outside),
        repeat_frac: s.as_ref().map_or(f64::NAN, |s| {
            serve::repeat_frac(s.jobs.iter().map(|j| &j.spec))
        }),
        loop_p50_ms: phase.map_or(f64::NAN, |p| median(&p.done_ms)),
        trace_overhead_frac: phase.map_or(f64::NAN, |p| p.trace_s / p.wall_s),
        peak_rss_mb: s.as_ref().map_or(f64::NAN, |s| s.peak_rss_mb),
        jobs: s.map(|s| s.jobs).unwrap_or_default(),
    }
}

/// The per-layer metrics, in table order.
fn per_layer(
    l: &Layers,
    sync: &SyncProbes,
    svc: &ServeProbes,
    [residual_frac, trace_overhead_frac, peak_rss_mb]: [f64; 3],
) -> Vec<(&'static str, f64)> {
    vec![
        ("simd.sweep_s", l.simd_sweep_s),
        ("simd.ops", l.simd_ops),
        ("simd.computed_bytes", l.simd_bytes),
        ("engine35.sweep_s", l.engine_sweep_s),
        ("engine35.sweep_1t_s", l.engine_sweep_1t_s),
        ("engine35.compute_s", l.engine_compute_s),
        ("engine35.kappa", l.engine_kappa),
        ("engine35.computed_bytes", l.engine_bytes),
        ("sync.barrier_wait_s", l.barrier_wait_s),
        ("sync.barrier_share", l.barrier_share),
        ("sync.barrier_episodes", l.barrier_episodes),
        ("sync.episode_ns", sync.episode_ns),
        ("sync.pool_lease_us", sync.pool_lease_us),
        ("run.run_plan_s", l.run_plan_s),
        ("run.overhead_s", l.run_overhead_s()),
        ("run.snapshot_s", l.snapshot_s),
        ("run.finite_scan_s", l.finite_scan_s),
        ("run.downgrades", l.downgrades),
        ("serve_runner.seed_grid_ms", svc.runner.seed_grid_ms),
        ("serve_runner.checksum_ms", svc.runner.checksum_ms),
        ("serve_runner.run_ms", svc.runner.run_ms),
        ("serve.codec_us", svc.codec_us),
        ("serve.queue_push_pop_us", svc.queue_push_pop_us),
        ("serve.ping_rtt_us", svc.ping_rtt_us),
        ("serve.exec_ms_p50", svc.exec_ms_p50),
        ("serve.outside_exec_ms_p50", svc.outside_exec_ms_p50),
        ("serve.spec_repeat_frac", svc.repeat_frac),
        ("residual_frac", residual_frac),
        ("trace_overhead_frac", trace_overhead_frac),
        ("peak_rss_mb", peak_rss_mb),
    ]
}

/// The served workload: the closed loop against the daemon; or, traced,
/// the same loop once plus every layer probe on a sample of the served
/// specs.
pub fn run_serve(cfg: &Config) -> Outcome {
    let mut spans = Spans::new(cfg.trace);
    let mut tally = Tally::default();
    let root = spans.open("run", None);
    let rid = root.id();
    let mut notes = Vec::new();
    let idle = host::sample("self");

    let (metrics, jobs, context) = if cfg.trace {
        let team = spans.time("setup", rid, || ThreadTeam::new(nproc())).0;
        let mut passes = Vec::new();
        for spec in serve::sample_specs(cfg.seed, SAMPLE_SPECS) {
            let p = Stencil::served(spec.n, spec.steps, spec.tile, spec.dim_t);
            let mut st = p.build();
            p.reference(&mut st);
            let want = Stencil::digest(&st);
            drop(st);
            passes.push(probe_layers(&p, &team, want, &mut spans, rid, &mut tally).0);
        }
        let layers = Layers::mean(&passes);
        let sync = sync_probes(&team, &mut spans, rid, &mut tally);
        drop(team);
        let svc = serve_probes(cfg, cfg.seconds, &mut spans, rid, &mut tally);
        // What one job costs in the layers the benchmark can time, against
        // what the client sees; queueing behind the other tenant is in the
        // residual.
        let covered = svc.exec_ms_p50
            + (svc.codec_us + svc.queue_push_pop_us + sync.pool_lease_us + svc.ping_rtt_us) / 1e3;
        let residual = 1.0 - covered / svc.loop_p50_ms;
        let metrics = per_layer(
            &layers,
            &sync,
            &svc,
            [residual, svc.trace_overhead_frac, svc.peak_rss_mb],
        );
        (
            metrics,
            svc.jobs,
            host::context_json(&idle, &host::sample("self")),
        )
    } else {
        // Set-up samples: daemons that only start and drain, then one per
        // session. Each session is a fresh daemon serving a short warm-up and
        // one loop of at least `MIN_JOBS` jobs; the run reports medians
        // across sessions, so no single daemon's thread placement on the
        // host's vCPUs sets a run's figures.
        let mut setup_s = Vec::new();
        let mut sessions = Vec::new();
        let next = AtomicUsize::new(0);
        let seconds = cfg.seconds / SESSIONS as f64;
        for i in 0..SPAWNS {
            let Some((daemon, t)) = start_daemon(cfg, &mut spans, rid, &mut tally) else {
                break;
            };
            setup_s.push(t);
            if i + SESSIONS < SPAWNS {
                stop_daemon(daemon, &mut spans, rid, &mut tally);
                continue;
            }
            let s = session(
                cfg, daemon, false, WARMUP_S, seconds, MIN_JOBS, &next, &mut spans, rid, &mut tally,
            );
            let crashed = s.wire_failed;
            sessions.push(s);
            if crashed {
                // A crashed or hung daemon ends the run.
                break;
            }
        }
        let phases: Vec<&Phase> = sessions.iter().filter_map(|s| s.phase.as_ref()).collect();
        let metrics = if phases.len() < SESSIONS || sessions.iter().any(|s| s.wire_failed) {
            // A daemon never came up or died mid-run; the failures are in
            // the tally.
            Vec::new()
        } else {
            let per =
                |f: fn(&Phase) -> f64| median(&phases.iter().map(|p| f(p)).collect::<Vec<_>>());
            let sent = sessions.iter().map(|s| s.jobs.len()).sum::<usize>();
            notes.push(format!(
                "{} daemon spawns, {sent} jobs sent, spec repeat share {:.4}",
                setup_s.len(),
                serve::repeat_frac(sessions.iter().flat_map(|s| &s.jobs).map(|j| &j.spec)),
            ));
            for (i, (s, p)) in sessions.iter().zip(&phases).enumerate() {
                notes.push(format!(
                    "session {i}: {} done in {:.3} s, p50 {:.3} ms, p99 {:.3} ms, daemon VmHWM {:.3} MB",
                    p.done_ms.len(),
                    p.wall_s,
                    median(&p.done_ms),
                    percentile(&p.done_ms, 99.0),
                    s.peak_rss_mb
                ));
            }
            vec![
                ("setup_s", median(&setup_s)),
                ("mups", per(Phase::mups)),
                ("jobs_per_s", per(Phase::jobs_per_s)),
                ("latency_p50_ms", per(|p| median(&p.done_ms))),
                ("latency_p99_ms", per(|p| percentile(&p.done_ms, 99.0))),
            ]
        };
        // Host state over the whole window; switches summed over the
        // sessions' daemons.
        let context = match (sessions.first(), sessions.last()) {
            (Some(first), Some(last)) if !metrics.is_empty() => {
                let switches =
                    |f: fn(&Session) -> &Sample| sessions.iter().map(|s| f(s).switches).sum();
                let before = first.before.with_switches(switches(|s| &s.before));
                let after = last.after.with_switches(switches(|s| &s.after));
                host::context_json(&before, &after)
            }
            _ => host::context_json(&idle, &host::sample("self")),
        };
        let jobs = sessions.into_iter().flat_map(|s| s.jobs).collect();
        (metrics, jobs, context)
    };
    let selftest = spans.time("selftest", rid, || serve_selftest(&jobs)).0;
    spans.close(root);
    Outcome {
        metrics,
        tally,
        selftest,
        context,
        spans,
        notes,
    }
}
