//! Crash-safe job records: every job's lifecycle state on disk, as a
//! body codec over [`hi_core::store`] (versioned text, CRC-32 trailer,
//! atomic `.tmp`/`.prev` rotation), so a SIGKILLed daemon restarts into
//! the queue it was serving.
//!
//! One file per job, `job-<id>.rec` in the daemon's state directory:
//!
//! ```text
//! hi-serve job v1
//! id 3
//! state running
//! profile-lines 9
//! profile alice
//! ...                      (the profile's canonical text, counted lines)
//! result-lines 0
//! end
//! crc32 1a2b3c4d
//! ```
//!
//! Embedded blocks (the profile, and for terminal jobs the result) are
//! length-framed by line count, so any byte sequence the profile or
//! result may legally contain — including words that look like record
//! keywords — round-trips. A torn write is caught by the CRC and falls
//! back to `.prev`; a record torn beyond both copies is reported, never
//! silently half-loaded.
//!
//! Algorithm-1 jobs additionally auto-save an `ExploreCheckpoint` next
//! to their record (`job-<id>.ck`, written through the same store), which
//! is what makes a restart *resume* mid-search instead of starting over.

use std::fmt;
use std::path::{Path, PathBuf};

use hi_core::store;

/// A job's lifecycle state. `Queued → Running → Done | Failed |
/// Cancelled`; the three right-hand states are terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for the scheduler.
    Queued,
    /// Currently executing (after a crash: to be resumed).
    Running,
    /// Finished; the record holds the result block.
    Done,
    /// Errored; the record holds a diagnostic block.
    Failed,
    /// Cancelled before or during execution.
    Cancelled,
}

impl JobState {
    /// The keyword used on the wire and in records.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// True once no further transitions can happen.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "queued" => Ok(JobState::Queued),
            "running" => Ok(JobState::Running),
            "done" => Ok(JobState::Done),
            "failed" => Ok(JobState::Failed),
            "cancelled" => Ok(JobState::Cancelled),
            other => Err(format!("unknown job state `{other}`")),
        }
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The persistent face of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// The job id (also the record's file name).
    pub id: u64,
    /// Lifecycle state at the last persist.
    pub state: JobState,
    /// The idempotency token the submission carried, if any — persisted
    /// so a restarted daemon still answers a retried `SUBMIT` with the
    /// existing job id instead of double-scheduling.
    pub token: Option<String>,
    /// The profile's canonical text
    /// ([`UserProfile::to_text`](crate::UserProfile::to_text)).
    pub profile_text: String,
    /// The result block, once terminal (`None` before that).
    pub result: Option<String>,
}

const HEADER: &str = "hi-serve job v1";

fn count_lines(text: &str) -> usize {
    text.lines().count()
}

impl JobRecord {
    /// Renders the record, CRC trailer included.
    pub fn to_text(&self) -> String {
        let mut body = format!("{HEADER}\n");
        body.push_str(&format!("id {}\n", self.id));
        body.push_str(&format!("state {}\n", self.state));
        if let Some(token) = &self.token {
            body.push_str(&format!("token {token}\n"));
        }
        body.push_str(&format!(
            "profile-lines {}\n",
            count_lines(&self.profile_text)
        ));
        for line in self.profile_text.lines() {
            body.push_str(line);
            body.push('\n');
        }
        let result = self.result.as_deref().unwrap_or("");
        body.push_str(&format!("result-lines {}\n", count_lines(result)));
        for line in result.lines() {
            body.push_str(line);
            body.push('\n');
        }
        body.push_str("end\n");
        store::seal(body)
    }

    /// Parses a record, verifying header and CRC trailer.
    pub fn from_text(text: &str) -> Result<Self, String> {
        if text.lines().next() != Some(HEADER) {
            return Err(format!("missing `{HEADER}` header"));
        }
        // CRC first: everything after it is untrustworthy otherwise.
        let mut lines = store::unseal(text)?.lines();
        lines.next();
        fn take_kv(lines: &mut std::str::Lines<'_>, key: &str) -> Result<String, String> {
            let line = lines
                .next()
                .ok_or_else(|| format!("truncated before `{key}`"))?;
            line.strip_prefix(key)
                .and_then(|rest| rest.strip_prefix(' '))
                .map(str::to_string)
                .ok_or_else(|| format!("expected `{key} ...`, found `{line}`"))
        }
        let id: u64 = take_kv(&mut lines, "id")?
            .parse()
            .map_err(|_| "bad job id".to_string())?;
        let state = JobState::parse(&take_kv(&mut lines, "state")?)?;
        // The token line is optional (pre-idempotency records omit it).
        let next = lines
            .next()
            .ok_or_else(|| "truncated before `profile-lines`".to_string())?;
        let (token, count_line) = match next.strip_prefix("token ") {
            Some(token) => (
                Some(token.to_string()),
                lines
                    .next()
                    .ok_or_else(|| "truncated before `profile-lines`".to_string())?,
            ),
            None => (None, next),
        };
        let profile_count: usize = count_line
            .strip_prefix("profile-lines")
            .and_then(|rest| rest.strip_prefix(' '))
            .ok_or_else(|| format!("expected `profile-lines ...`, found `{count_line}`"))?
            .parse()
            .map_err(|_| "bad profile-lines count".to_string())?;
        let mut profile_text = String::new();
        for _ in 0..profile_count {
            let line = lines.next().ok_or("truncated inside profile block")?;
            profile_text.push_str(line);
            profile_text.push('\n');
        }
        let result_count: usize = take_kv(&mut lines, "result-lines")?
            .parse()
            .map_err(|_| "bad result-lines count".to_string())?;
        let mut result_text = String::new();
        for _ in 0..result_count {
            let line = lines.next().ok_or("truncated inside result block")?;
            result_text.push_str(line);
            result_text.push('\n');
        }
        if lines.next() != Some("end") {
            return Err("missing `end` sentinel".to_string());
        }
        Ok(JobRecord {
            id,
            state,
            token,
            profile_text,
            result: (result_count > 0).then_some(result_text),
        })
    }
}

/// Loads a job record, falling back to `.prev` when the primary copy is
/// torn or missing. Returns the record and whether the fallback was
/// used (worth a diagnostic). Errors only when *both* copies are
/// unusable, with the primary's diagnostic.
pub fn load_job_recovering(path: &Path) -> Result<(JobRecord, bool), String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|text| JobRecord::from_text(&text))
    };
    match store::load_recovering(path, read) {
        Ok((record, fallback)) => Ok((record, fallback.is_some())),
        Err(e) => Err(format!(
            "{}: {e} (its .prev rotation is unusable too)",
            path.display()
        )),
    }
}

/// The record path for job `id` under `state_dir`.
pub fn record_path(state_dir: &Path, id: u64) -> PathBuf {
    state_dir.join(format!("job-{id}.rec"))
}

/// The Algorithm-1 checkpoint path for job `id` under `state_dir`.
pub fn checkpoint_path(state_dir: &Path, id: u64) -> PathBuf {
    state_dir.join(format!("job-{id}.ck"))
}

/// Scans `state_dir` for job records, recovering each (with `.prev`
/// fallback), sorted by job id. Unreadable records are returned as
/// per-file errors alongside the survivors — a half-corrupt state
/// directory still restarts the jobs it can prove intact.
pub fn scan_records(state_dir: &Path) -> (Vec<(JobRecord, bool)>, Vec<String>) {
    let mut records = Vec::new();
    let mut errors = Vec::new();
    let Ok(entries) = std::fs::read_dir(state_dir) else {
        return (records, errors);
    };
    let mut ids: Vec<u64> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name();
            let name = name.to_str()?;
            name.strip_prefix("job-")?
                .strip_suffix(".rec")?
                .parse::<u64>()
                .ok()
        })
        .collect();
    ids.sort_unstable();
    ids.dedup();
    for id in ids {
        match load_job_recovering(&record_path(state_dir, id)) {
            Ok(loaded) => records.push(loaded),
            Err(e) => errors.push(e),
        }
    }
    (records, errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobRecord {
        JobRecord {
            id: 3,
            state: JobState::Done,
            token: None,
            profile_text: "profile alice\npdrmin 0.9\n".into(),
            result: Some("profile alice\nstatus feasible\nend end end\n".into()),
        }
    }

    #[test]
    fn token_line_roundtrips_and_stays_optional() {
        let tokened = JobRecord {
            token: Some("deploy-42".into()),
            ..sample()
        };
        let text = tokened.to_text();
        assert!(text.contains("\ntoken deploy-42\n"), "{text}");
        assert_eq!(JobRecord::from_text(&text), Ok(tokened));
        // Tokenless records render no token line at all, so pre-token
        // records parse unchanged.
        let bare = sample();
        assert!(!bare.to_text().contains("token"), "{}", bare.to_text());
        assert_eq!(JobRecord::from_text(&bare.to_text()), Ok(bare));
        // A profile whose first line *looks* like a token line must not
        // be mistaken for one (the real token line sits before the
        // profile-lines frame; payload lines are counted).
        let tricky = JobRecord {
            profile_text: "token not-a-token\npdrmin 0.9\n".into(),
            ..sample()
        };
        assert_eq!(JobRecord::from_text(&tricky.to_text()), Ok(tricky));
    }

    #[test]
    fn records_roundtrip_including_keyword_looking_content() {
        let record = sample();
        assert_eq!(JobRecord::from_text(&record.to_text()), Ok(record.clone()));
        // A profile line that *looks* like a record keyword must survive
        // the length framing.
        let tricky = JobRecord {
            profile_text: "profile end\nresult-lines 99\n".into(),
            result: None,
            state: JobState::Queued,
            ..record
        };
        assert_eq!(JobRecord::from_text(&tricky.to_text()), Ok(tricky));
    }

    #[test]
    fn torn_records_are_refused_with_crc_diagnostics() {
        let text = sample().to_text();
        let torn = &text[..text.len() / 2];
        let err = JobRecord::from_text(torn).unwrap_err();
        assert!(err.contains("crc32"), "{err}");
        let mut flipped = text.clone().into_bytes();
        flipped[20] ^= 0x40;
        let err = JobRecord::from_text(&String::from_utf8(flipped).unwrap()).unwrap_err();
        assert!(err.contains("mismatch"), "{err}");
    }

    #[test]
    fn atomic_writes_rotate_and_recover() {
        let dir = std::env::temp_dir().join(format!("hi-serve-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = record_path(&dir, 3);
        let write = |record: &JobRecord| store::write_atomic(&path, record.to_text().as_bytes());
        let mut record = sample();
        record.state = JobState::Queued;
        write(&record).unwrap();
        record.state = JobState::Done;
        write(&record).unwrap();
        let (loaded, fallback) = load_job_recovering(&path).unwrap();
        assert!(!fallback);
        assert_eq!(loaded.state, JobState::Done);
        // Tear the primary: recovery must surface .prev (the queued copy).
        std::fs::write(&path, "hi-serve job v1\ngarbage").unwrap();
        let (recovered, fallback) = load_job_recovering(&path).unwrap();
        assert!(fallback);
        assert_eq!(recovered.state, JobState::Queued);
        let (records, errors) = scan_records(&dir);
        assert_eq!(records.len(), 1);
        assert!(errors.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
