//! Supervised, checkpointed sweep runner.
//!
//! Executes each grid point of a sweep as an **isolated job**: the job
//! closure runs on its own thread behind `catch_unwind`, under an
//! optional wall-clock deadline enforced by this supervisor (the
//! engine itself stays wall-clock-free — its half of the deadline is
//! the deterministic [`lnoc_netsim::MeshConfig::cycle_budget`]), with
//! bounded retry and exponential backoff for transient failures. A
//! panicking, deadlocking or overrunning point degrades to a recorded
//! failure while every other point completes.
//!
//! Results land in a **content-addressed cache**: each job carries a
//! canonical config digest ([`crate::digest`]) and its serialized
//! payload is stored under `<cache-dir>/<digest>.json`. Statistics are
//! a pure function of the configuration, so a digest hit is provably
//! the same bytes a re-run would produce — which is what makes
//! `--resume` sound: a killed sweep re-runs only the points that never
//! completed (or failed), and the reassembled artifacts are
//! byte-identical to an uninterrupted run.
//!
//! Every supervision decision is checkpointed in an append-only
//! [`crate::journal`] under `out/`, and points that exhaust their
//! retries are collected into a failure manifest
//! ([`failure_manifest`]).
//!
//! The retry policy is failure-kind-aware: panics and wall-clock
//! timeouts may be transient (host noise, a scheduling stall) and are
//! retried with exponential backoff; [`lnoc_netsim::SimAbort`]s are
//! deterministic properties of the configuration (a deadlock or a
//! cycle-budget overrun replays identically every time) and fail fast
//! without burning retries.

use crate::journal::{Journal, JournalEvent};
use crate::{json, out_dir};
use lnoc_netsim::SimAbort;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a job attempt stopped without producing a payload, as reported
/// by the job itself (deterministic aborts) — panics and timeouts are
/// detected by the supervisor instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobAbort {
    /// Failure class, used for retry policy and the manifest.
    pub kind: AbortKind,
    /// Human-readable error (for a deadlock, the engine's full
    /// per-lane diagnostic).
    pub message: String,
}

/// Deterministic abort classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortKind {
    /// The engine's zero-progress watchdog fired.
    Deadlock,
    /// The engine's cycle budget was exceeded (the in-engine half of a
    /// per-point deadline).
    CycleBudget,
    /// Any other configuration-determined failure.
    Other,
}

impl AbortKind {
    /// Manifest / journal name.
    pub fn name(self) -> &'static str {
        match self {
            AbortKind::Deadlock => "deadlock",
            AbortKind::CycleBudget => "cycle-budget",
            AbortKind::Other => "abort",
        }
    }
}

impl JobAbort {
    /// Maps an engine abort onto a job abort.
    pub fn from_sim(abort: SimAbort) -> JobAbort {
        let kind = match &abort {
            SimAbort::Deadlock { .. } => AbortKind::Deadlock,
            SimAbort::CycleBudgetExceeded { .. } => AbortKind::CycleBudget,
        };
        JobAbort {
            kind,
            message: abort.to_string(),
        }
    }
}

/// One isolated unit of sweep work.
pub struct Job {
    /// Human-readable label for the journal, progress output and the
    /// failure manifest.
    pub label: String,
    /// Canonical config digest — the cache key. Build it with
    /// [`crate::digest::DigestBuilder`] over *every* input that
    /// determines the payload.
    pub digest: String,
    /// The work. Called once per attempt (so it must be `Fn`, not
    /// `FnOnce`), on a supervisor-owned thread; returns the serialized
    /// payload that will be cached verbatim and handed back on every
    /// future hit — byte-identity of resumed artifacts rests on this.
    pub work: Arc<dyn Fn() -> Result<String, JobAbort> + Send + Sync>,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("label", &self.label)
            .field("digest", &self.digest)
            .finish_non_exhaustive()
    }
}

impl Job {
    /// Builds a job from a label, digest and work closure.
    pub fn new(
        label: impl Into<String>,
        digest: impl Into<String>,
        work: impl Fn() -> Result<String, JobAbort> + Send + Sync + 'static,
    ) -> Job {
        Job {
            label: label.into(),
            digest: digest.into(),
            work: Arc::new(work),
        }
    }
}

/// Supervision counters for one job, recorded into the cache entry (so
/// a cached point reports the counters from the run that produced it —
/// keeping resumed artifacts byte-identical) and surfaced in the
/// schema 6 rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttemptMeta {
    /// Total attempts made (1 = clean first try).
    pub attempts: u32,
    /// Attempts that ended in a panic.
    pub panics: u32,
    /// Deadline hits: wall-clock timeouts plus in-engine cycle-budget
    /// aborts.
    pub deadline_hits: u32,
}

/// Final state of one job after supervision.
#[derive(Debug, Clone)]
pub enum JobStatus {
    /// The job produced a payload (fresh or from the cache).
    Done {
        /// The serialized payload, byte-identical to what the job's
        /// first successful run returned.
        payload: String,
        /// Supervision counters from the run that produced the
        /// payload.
        meta: AttemptMeta,
        /// Whether the payload came from the content-addressed cache.
        from_cache: bool,
    },
    /// The job exhausted its retry policy (or aborted
    /// deterministically).
    Failed {
        /// Failure class name (`panic`, `timeout`, `deadlock`,
        /// `cycle-budget`, `abort`).
        kind: String,
        /// Last error text.
        error: String,
        /// Supervision counters.
        meta: AttemptMeta,
    },
    /// The fuse tripped before this job ran (test hook simulating a
    /// mid-sweep kill).
    NotRun,
}

impl JobStatus {
    /// The payload, if the job is done.
    pub fn payload(&self) -> Option<&str> {
        match self {
            JobStatus::Done { payload, .. } => Some(payload),
            _ => None,
        }
    }

    /// The supervision counters, if the job ran.
    pub fn meta(&self) -> Option<AttemptMeta> {
        match self {
            JobStatus::Done { meta, .. } | JobStatus::Failed { meta, .. } => Some(*meta),
            JobStatus::NotRun => None,
        }
    }
}

/// Runner configuration; build one from [`SweepFlags::runner_config`]
/// in binaries.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Content-addressed cache directory.
    pub cache_dir: PathBuf,
    /// Append-only journal path.
    pub journal_path: PathBuf,
    /// Reuse cache entries (and append to the journal) instead of
    /// starting over.
    pub resume: bool,
    /// Wall-clock deadline per attempt; `None` = unbounded. A timed-out
    /// job thread is abandoned (threads cannot be killed), so its
    /// eventual result — if any — is discarded.
    pub deadline: Option<Duration>,
    /// Extra attempts after the first for transient failures (panics,
    /// timeouts). Deterministic aborts never retry.
    pub max_retries: u32,
    /// Base backoff before the first retry; doubles per retry, capped
    /// at 10 s.
    pub backoff: Duration,
    /// Stop executing fresh jobs after this many, then report the
    /// remainder as [`JobStatus::NotRun`] — the kill-mid-sweep test
    /// hook. Cache hits do not count against the fuse.
    pub fuse: Option<u64>,
}

/// What a whole sweep's supervision produced, indexed like the job
/// slice passed to [`run_jobs`].
#[derive(Debug)]
pub struct SweepReport {
    /// Per-job final states.
    pub statuses: Vec<JobStatus>,
    /// Fresh job executions (excludes cache hits and not-run jobs).
    pub executed: u64,
    /// Jobs satisfied from the cache.
    pub cache_hits: u64,
    /// Whether the fuse tripped (some jobs did not run).
    pub fuse_tripped: bool,
}

impl SweepReport {
    /// Whether any job failed permanently.
    pub fn has_failures(&self) -> bool {
        self.statuses
            .iter()
            .any(|s| matches!(s, JobStatus::Failed { .. }))
    }

    /// Exit code for a sweep binary: 0 clean, [`EXIT_FAILURES`] if any
    /// point failed, [`EXIT_FUSE`] if the fuse tripped (the fuse
    /// dominates — an interrupted sweep is incomplete, not failed).
    pub fn exit_code(&self) -> i32 {
        if self.fuse_tripped {
            EXIT_FUSE
        } else if self.has_failures() {
            EXIT_FAILURES
        } else {
            0
        }
    }
}

/// Exit code when one or more points exhausted their retries.
pub const EXIT_FAILURES: i32 = 2;
/// Exit code when the `--fuse` job-count fuse tripped.
pub const EXIT_FUSE: i32 = 3;

/// Cache entry format version (line 1 of every entry).
const CACHE_VERSION: u64 = 1;

fn cache_path(dir: &Path, digest: &str) -> PathBuf {
    dir.join(format!("{digest}.json"))
}

/// Reads a cache entry: `(meta, payload)` on a well-formed hit.
fn read_cache(dir: &Path, digest: &str) -> Option<(AttemptMeta, String)> {
    let text = std::fs::read_to_string(cache_path(dir, digest)).ok()?;
    let (header, payload) = text.split_once('\n')?;
    if json::field_u64(header, "v") != Some(CACHE_VERSION)
        || json::field_str(header, "digest").as_deref() != Some(digest)
    {
        return None;
    }
    let meta = AttemptMeta {
        attempts: json::field_u64(header, "attempts")? as u32,
        panics: json::field_u64(header, "panics")? as u32,
        deadline_hits: json::field_u64(header, "deadline_hits")? as u32,
    };
    Some((meta, payload.to_string()))
}

/// Writes a cache entry atomically (temp file + rename), so a kill
/// mid-write can never leave a half-entry that later resumes wrong.
fn write_cache(dir: &Path, digest: &str, meta: AttemptMeta, payload: &str) {
    let header = json::Obj::new()
        .raw("v", CACHE_VERSION)
        .str("digest", digest)
        .raw("attempts", meta.attempts)
        .raw("panics", meta.panics)
        .raw("deadline_hits", meta.deadline_hits)
        .build();
    let final_path = cache_path(dir, digest);
    let tmp = dir.join(format!("{digest}.json.tmp"));
    let body = format!("{header}\n{payload}");
    std::fs::write(&tmp, body).expect("write cache entry");
    std::fs::rename(&tmp, &final_path).expect("publish cache entry");
}

/// One supervised attempt's outcome.
enum Attempt {
    Ok(String),
    Abort(JobAbort),
    Panicked(String),
    TimedOut(Duration),
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs one attempt on its own thread under the optional wall-clock
/// deadline. On timeout the thread is abandoned — it keeps running
/// detached, its eventual send lands in a dropped channel.
fn supervised_attempt(
    work: Arc<dyn Fn() -> Result<String, JobAbort> + Send + Sync>,
    deadline: Option<Duration>,
) -> Attempt {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::Builder::new()
        .name("sweep-job".into())
        .spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work()));
            let _ = tx.send(result);
        })
        .expect("spawn job thread");
    let received = match deadline {
        Some(limit) => match rx.recv_timeout(limit) {
            Ok(r) => r,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                drop(handle); // detach: threads cannot be killed
                return Attempt::TimedOut(limit);
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Err(Box::new("job thread died without reporting".to_string()) as _)
            }
        },
        None => rx.recv().unwrap_or_else(|_| {
            Err(Box::new("job thread died without reporting".to_string()) as _)
        }),
    };
    let _ = handle.join();
    match received {
        Ok(Ok(payload)) => Attempt::Ok(payload),
        Ok(Err(abort)) => Attempt::Abort(abort),
        Err(panic_payload) => Attempt::Panicked(panic_text(panic_payload)),
    }
}

/// Executes `jobs` in order under the supervision policy. Jobs run
/// serially (sweep timings must stay clean), each isolated on its own
/// thread. See the module docs for the full lifecycle.
///
/// # Panics
///
/// Panics only on orchestrator-level I/O failure (cache directory or
/// journal unwritable) — job failures of every kind are *contained*
/// and reported in the returned [`SweepReport`].
pub fn run_jobs(cfg: &RunnerConfig, jobs: &[Job]) -> SweepReport {
    std::fs::create_dir_all(&cfg.cache_dir).expect("create cache dir");
    let mut journal = if cfg.resume {
        Journal::append(&cfg.journal_path)
    } else {
        Journal::fresh(&cfg.journal_path)
    }
    .expect("open journal");
    let mut record = |event: &str, job: &Job, attempt: u32, detail: &str| {
        journal.record(&JournalEvent {
            event: event.into(),
            job: job.label.clone(),
            digest: job.digest.clone(),
            attempt,
            detail: detail.into(),
        });
    };

    let mut statuses = Vec::with_capacity(jobs.len());
    let mut executed = 0u64;
    let mut cache_hits = 0u64;
    let mut fuse_tripped = false;
    for (i, job) in jobs.iter().enumerate() {
        let tag = format!("[{}/{}] {}", i + 1, jobs.len(), job.label);
        if cfg.resume {
            if let Some((meta, payload)) = read_cache(&cfg.cache_dir, &job.digest) {
                cache_hits += 1;
                record("cached", job, 0, "");
                let short = &job.digest[..job.digest.len().min(12)];
                eprintln!("{tag}: cache hit ({short})");
                statuses.push(JobStatus::Done {
                    payload,
                    meta,
                    from_cache: true,
                });
                continue;
            }
        }
        if fuse_tripped || cfg.fuse.is_some_and(|f| executed >= f) {
            if !fuse_tripped {
                fuse_tripped = true;
                record(
                    "fuse",
                    job,
                    0,
                    &format!("fuse tripped after {executed} jobs"),
                );
                eprintln!("{tag}: FUSE tripped — simulating a mid-sweep kill");
            }
            statuses.push(JobStatus::NotRun);
            continue;
        }
        executed += 1;
        let mut meta = AttemptMeta::default();
        let status = loop {
            meta.attempts += 1;
            let started = Instant::now();
            match supervised_attempt(job.work.clone(), cfg.deadline) {
                Attempt::Ok(payload) => {
                    write_cache(&cfg.cache_dir, &job.digest, meta, &payload);
                    record("done", job, meta.attempts, "");
                    eprintln!("{tag}: done in {:.2}s", started.elapsed().as_secs_f64());
                    break JobStatus::Done {
                        payload,
                        meta,
                        from_cache: false,
                    };
                }
                Attempt::Abort(abort) => {
                    // Deterministic: retrying replays the same abort.
                    if abort.kind == AbortKind::CycleBudget {
                        meta.deadline_hits += 1;
                    }
                    record("failed", job, meta.attempts, &abort.message);
                    eprintln!("{tag}: FAILED ({})", abort.kind.name());
                    break JobStatus::Failed {
                        kind: abort.kind.name().to_string(),
                        error: abort.message,
                        meta,
                    };
                }
                Attempt::Panicked(msg) => {
                    meta.panics += 1;
                    if let Some(wait) = retry_backoff(cfg, meta.attempts) {
                        record("retry", job, meta.attempts, &msg);
                        eprintln!("{tag}: panicked, retrying in {wait:?}");
                        std::thread::sleep(wait);
                    } else {
                        record("failed", job, meta.attempts, &msg);
                        eprintln!("{tag}: FAILED (panic, {} attempts)", meta.attempts);
                        break JobStatus::Failed {
                            kind: "panic".to_string(),
                            error: msg,
                            meta,
                        };
                    }
                }
                Attempt::TimedOut(limit) => {
                    meta.deadline_hits += 1;
                    let msg = format!("wall-clock deadline of {limit:?} exceeded");
                    if let Some(wait) = retry_backoff(cfg, meta.attempts) {
                        record("retry", job, meta.attempts, &msg);
                        eprintln!("{tag}: timed out, retrying in {wait:?}");
                        std::thread::sleep(wait);
                    } else {
                        record("failed", job, meta.attempts, &msg);
                        eprintln!("{tag}: FAILED (timeout, {} attempts)", meta.attempts);
                        break JobStatus::Failed {
                            kind: "timeout".to_string(),
                            error: msg,
                            meta,
                        };
                    }
                }
            }
        };
        statuses.push(status);
    }
    SweepReport {
        statuses,
        executed,
        cache_hits,
        fuse_tripped,
    }
}

/// Backoff before the next retry, or `None` when attempts are
/// exhausted. Exponential from the configured base, capped at 10 s.
fn retry_backoff(cfg: &RunnerConfig, attempts_so_far: u32) -> Option<Duration> {
    if attempts_so_far > cfg.max_retries {
        return None;
    }
    let factor = 1u32 << (attempts_so_far - 1).min(16);
    Some((cfg.backoff * factor).min(Duration::from_secs(10)))
}

/// Renders the failure manifest: one entry per permanently failed
/// point (empty `failures` array when the sweep was clean, so CI can
/// assert on the file either way).
pub fn failure_manifest(jobs: &[Job], report: &SweepReport) -> String {
    let rows: Vec<String> = jobs
        .iter()
        .zip(&report.statuses)
        .filter_map(|(job, status)| match status {
            JobStatus::Failed { kind, error, meta } => Some(
                json::Obj::new()
                    .str("job", &job.label)
                    .str("digest", &job.digest)
                    .str("kind", kind)
                    .raw("attempts", meta.attempts)
                    .raw("panics", meta.panics)
                    .raw("deadline_hits", meta.deadline_hits)
                    .str("error", error)
                    .build(),
            ),
            _ => None,
        })
        .collect();
    format!(
        "{{\n  \"failures\": {}\n}}\n",
        json::array(&rows, "    ", "  ")
    )
}

/// The value after `flag` in `args` (`--flag value` style), if the
/// flag is present.
pub fn arg_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// The number after `flag` in `args`, if the flag is present.
///
/// # Panics
///
/// Panics on a malformed value (harness binaries want loud failures).
pub fn arg_num<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    arg_value(args, flag).map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("{flag} takes an integer, got {v}"))
    })
}

/// The shared supervision CLI flags every sweep binary accepts.
#[derive(Debug, Clone, Default)]
pub struct SweepFlags {
    /// `--cache-dir <path>` (default `out/cache/<bin>`).
    pub cache_dir: Option<PathBuf>,
    /// `--resume`: reuse cache entries and append to the journal.
    pub resume: bool,
    /// `--deadline-cycles <n>`: in-engine per-run cycle budget
    /// ([`lnoc_netsim::MeshConfig::cycle_budget`]); 0 = unlimited.
    pub deadline_cycles: u64,
    /// `--deadline-ms <n>`: wall-clock supervisor deadline per attempt.
    pub deadline_ms: Option<u64>,
    /// `--max-retries <n>` (default 2).
    pub max_retries: u32,
    /// `--retry-backoff-ms <n>` (default 200).
    pub backoff_ms: u64,
    /// `--fuse <n>`: stop after n fresh jobs (kill-mid-sweep test
    /// hook).
    pub fuse: Option<u64>,
    /// `--deterministic`: pin wall-clock fields in payloads to 0 so
    /// whole artifacts are byte-comparable across runs.
    pub deterministic: bool,
}

impl SweepFlags {
    /// Parses the shared flags out of `args` (ignores flags it does
    /// not know — binaries parse their own on top).
    ///
    /// # Panics
    ///
    /// Panics on malformed values (harness binaries want loud
    /// failures).
    pub fn parse(args: &[String]) -> SweepFlags {
        SweepFlags {
            cache_dir: arg_value(args, "--cache-dir").map(PathBuf::from),
            resume: args.iter().any(|a| a == "--resume"),
            deadline_cycles: arg_num(args, "--deadline-cycles").unwrap_or(0),
            deadline_ms: arg_num(args, "--deadline-ms"),
            max_retries: arg_num(args, "--max-retries").unwrap_or(2),
            backoff_ms: arg_num(args, "--retry-backoff-ms").unwrap_or(200),
            fuse: arg_num(args, "--fuse"),
            deterministic: args.iter().any(|a| a == "--deterministic"),
        }
    }

    /// Builds the [`RunnerConfig`] for a binary, defaulting the cache
    /// to `out/cache/<bin>` and the journal to
    /// `out/<bin>_journal.jsonl`.
    pub fn runner_config(&self, bin: &str) -> RunnerConfig {
        RunnerConfig {
            cache_dir: self
                .cache_dir
                .clone()
                .unwrap_or_else(|| out_dir().join("cache").join(bin)),
            journal_path: out_dir().join(format!("{bin}_journal.jsonl")),
            resume: self.resume,
            deadline: self.deadline_ms.map(Duration::from_millis),
            max_retries: self.max_retries,
            backoff: Duration::from_millis(self.backoff_ms),
            fuse: self.fuse,
        }
    }

    /// One-line summary for the journal's `sweep-start` event.
    pub fn summary(&self) -> String {
        format!(
            "resume={} deadline_cycles={} deadline_ms={:?} max_retries={} fuse={:?} deterministic={}",
            self.resume,
            self.deadline_cycles,
            self.deadline_ms,
            self.max_retries,
            self.fuse,
            self.deterministic
        )
    }
}

/// The `--help` text block for the shared supervision flags; binaries
/// print it after their own usage lines.
pub const FLAGS_HELP: &str = "\
Supervision flags (shared by every sweep binary):
  --cache-dir <path>      content-addressed result cache (default out/cache/<bin>)
  --resume                reuse cache entries; re-run only missing/failed points;
                          append to the journal instead of truncating it
  --deadline-cycles <n>   in-engine cycle budget per run (deterministic; 0 = off)
  --deadline-ms <n>       wall-clock deadline per attempt (supervisor-side)
  --max-retries <n>       extra attempts for transient failures (default 2);
                          deterministic aborts (deadlock, cycle budget) never retry
  --retry-backoff-ms <n>  base retry backoff, doubles per retry (default 200)
  --fuse <n>              stop after n fresh jobs and exit 3 (simulated kill)
  --deterministic         pin wall-time fields to 0 so artifacts are byte-comparable
  --help                  print usage and exit

Exit codes: 0 clean; 2 some points failed (see the failure manifest);
3 the --fuse tripped (sweep incomplete; finish it with --resume).";

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn test_cfg(name: &str) -> RunnerConfig {
        let root =
            std::env::temp_dir().join(format!("lnoc_runner_{}_{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        RunnerConfig {
            cache_dir: root.join("cache"),
            journal_path: root.join("journal.jsonl"),
            resume: false,
            deadline: None,
            max_retries: 2,
            backoff: Duration::from_millis(1),
            fuse: None,
        }
    }

    #[test]
    fn payloads_cache_and_resume_skips_completed() {
        let cfg = test_cfg("cache");
        let calls = Arc::new(Mutex::new(0u32));
        let c = calls.clone();
        let jobs = vec![Job::new("p0", "d0", move || {
            *c.lock().expect("counter") += 1;
            Ok("payload-bytes".to_string())
        })];
        let first = run_jobs(&cfg, &jobs);
        assert_eq!(first.executed, 1);
        assert_eq!(first.statuses[0].payload(), Some("payload-bytes"));
        // Resume: served from cache, closure not called again.
        let resumed = run_jobs(
            &RunnerConfig {
                resume: true,
                ..cfg.clone()
            },
            &jobs,
        );
        assert_eq!(resumed.cache_hits, 1);
        assert_eq!(resumed.executed, 0);
        assert_eq!(resumed.statuses[0].payload(), Some("payload-bytes"));
        assert_eq!(*calls.lock().expect("counter"), 1);
        // Without --resume the cache is ignored and the job re-runs.
        let fresh = run_jobs(&cfg, &jobs);
        assert_eq!(fresh.executed, 1);
        assert_eq!(*calls.lock().expect("counter"), 2);
        let _ = std::fs::remove_dir_all(cfg.cache_dir.parent().expect("root"));
    }

    #[test]
    fn transient_panic_retries_then_succeeds() {
        let cfg = test_cfg("retry");
        let calls = Arc::new(Mutex::new(0u32));
        let c = calls.clone();
        let jobs = vec![Job::new("flaky", "d1", move || {
            let mut n = c.lock().unwrap_or_else(|p| p.into_inner());
            *n += 1;
            if *n < 3 {
                panic!("transient failure #{n}");
            }
            Ok("ok".to_string())
        })];
        let report = run_jobs(&cfg, &jobs);
        let JobStatus::Done {
            meta, from_cache, ..
        } = &report.statuses[0]
        else {
            panic!("flaky job must succeed on the third attempt");
        };
        assert!(!from_cache);
        assert_eq!(meta.attempts, 3);
        assert_eq!(meta.panics, 2);
        // The counters are recorded in the cache entry.
        let resumed = run_jobs(
            &RunnerConfig {
                resume: true,
                ..cfg.clone()
            },
            &jobs,
        );
        assert_eq!(resumed.statuses[0].meta().expect("meta").panics, 2);
        let _ = std::fs::remove_dir_all(cfg.cache_dir.parent().expect("root"));
    }

    #[test]
    fn permanent_panic_exhausts_retries_and_lands_in_manifest() {
        let cfg = test_cfg("manifest");
        let jobs = vec![
            Job::new("good", "dg", || Ok("fine".to_string())),
            Job::new("bad", "db", || panic!("always broken")),
            Job::new("also-good", "dag", || Ok("fine too".to_string())),
        ];
        let report = run_jobs(&cfg, &jobs);
        // Isolation: neighbours complete.
        assert!(report.statuses[0].payload().is_some());
        assert!(report.statuses[2].payload().is_some());
        let JobStatus::Failed { kind, meta, .. } = &report.statuses[1] else {
            panic!("always-panicking job must fail");
        };
        assert_eq!(kind, "panic");
        assert_eq!(meta.attempts, 3, "1 try + max_retries=2");
        assert_eq!(report.exit_code(), EXIT_FAILURES);
        let manifest = failure_manifest(&jobs, &report);
        assert!(manifest.contains("\"job\": \"bad\""), "{manifest}");
        assert!(manifest.contains("always broken"), "{manifest}");
        assert!(!manifest.contains("good"), "clean jobs stay out");
        let _ = std::fs::remove_dir_all(cfg.cache_dir.parent().expect("root"));
    }

    #[test]
    fn deterministic_abort_fails_fast_without_retries() {
        let cfg = test_cfg("abort");
        let calls = Arc::new(Mutex::new(0u32));
        let c = calls.clone();
        let jobs = vec![Job::new("wedged", "dw", move || {
            *c.lock().expect("counter") += 1;
            Err(JobAbort {
                kind: AbortKind::Deadlock,
                message: "watchdog: ...".to_string(),
            })
        })];
        let report = run_jobs(&cfg, &jobs);
        let JobStatus::Failed { kind, meta, .. } = &report.statuses[0] else {
            panic!("abort must fail");
        };
        assert_eq!(kind, "deadlock");
        assert_eq!(meta.attempts, 1, "deterministic aborts never retry");
        assert_eq!(*calls.lock().expect("counter"), 1);
        let _ = std::fs::remove_dir_all(cfg.cache_dir.parent().expect("root"));
    }

    #[test]
    fn wall_deadline_times_out_and_counts_deadline_hits() {
        let cfg = RunnerConfig {
            deadline: Some(Duration::from_millis(20)),
            max_retries: 1,
            ..test_cfg("deadline")
        };
        let jobs = vec![Job::new("slow", "ds", || {
            std::thread::sleep(Duration::from_secs(5));
            Ok("too late".to_string())
        })];
        let report = run_jobs(&cfg, &jobs);
        let JobStatus::Failed { kind, meta, .. } = &report.statuses[0] else {
            panic!("slow job must time out");
        };
        assert_eq!(kind, "timeout");
        assert_eq!(meta.attempts, 2);
        assert_eq!(meta.deadline_hits, 2);
        let _ = std::fs::remove_dir_all(cfg.cache_dir.parent().expect("root"));
    }

    #[test]
    fn fuse_trips_after_n_fresh_jobs_and_resume_finishes() {
        let cfg = RunnerConfig {
            fuse: Some(1),
            ..test_cfg("fuse")
        };
        let jobs = vec![
            Job::new("a", "da", || Ok("A".to_string())),
            Job::new("b", "db2", || Ok("B".to_string())),
        ];
        let report = run_jobs(&cfg, &jobs);
        assert!(report.fuse_tripped);
        assert_eq!(report.exit_code(), EXIT_FUSE);
        assert!(matches!(report.statuses[1], JobStatus::NotRun));
        // Resume without the fuse completes only the missing job.
        let finish = run_jobs(
            &RunnerConfig {
                fuse: None,
                resume: true,
                ..cfg.clone()
            },
            &jobs,
        );
        assert_eq!(finish.cache_hits, 1);
        assert_eq!(finish.executed, 1);
        assert_eq!(finish.exit_code(), 0);
        assert_eq!(finish.statuses[1].payload(), Some("B"));
        let _ = std::fs::remove_dir_all(cfg.cache_dir.parent().expect("root"));
    }
}
