//! The wire protocol: one request per line, length-framed payloads,
//! deterministic single-line or counted-block responses.
//!
//! Designed for `printf | nc` debuggability and byte-exact testing:
//!
//! ```text
//! client                          server
//! ------                          ------
//! SUBMIT 2 deploy-42
//! profile alice
//! pdrmin 0.9
//!                                 OK job 1
//! SUBMIT 2 deploy-42
//! profile alice
//! pdrmin 0.9
//!                                 OK job 1       (idempotent replay)
//! STATUS 1                        OK status 1 running
//! WAIT 1                          EVENT 1 iteration 1 simulations 24
//!                                 EVENT 1 iteration 2 simulations 32
//!                                 OK status 1 done
//! RESULT 1                        OK result 1 11
//!                                 profile alice
//!                                 ...           (11 counted lines)
//! CANCEL 2                        OK cancel 2 cancelled
//! FRONT 1                         OK front 1 4
//!                                 key 91a09d2f63880df1
//!                                 simulations 32
//!                                 point ...     (one per front design)
//! STATS                           OK stats 18
//!                                 serve.jobs.accepted 2
//!                                 ...           (18 counted lines)
//! SHUTDOWN                        OK shutdown
//! anything malformed              ERR <one-line diagnostic>
//! ```
//!
//! `SUBMIT <n> [token]` is followed by exactly `n` raw profile-file
//! lines (line count framing, like the record format: any legal profile
//! byte sequence round-trips). One submission may carry a whole fleet —
//! every `profile` block becomes a job and the response lists every id.
//!
//! The optional **idempotency token** makes retries safe over a lossy
//! transport: a client that never saw the `OK job ...` response resends
//! the same `SUBMIT` with the same token and gets the *existing* job
//! ids back instead of double-scheduling. Reusing a token with a
//! *different* payload is refused with `ERR token-reuse`, so a buggy
//! client can't silently alias two distinct jobs.
//!
//! `ERR` responses put a machine-readable reason as the first word when
//! the client is expected to branch on it: `ERR busy ...` (overload —
//! back off and retry), `ERR too-large ...` (protocol misuse — do not
//! retry), `ERR token-reuse ...` (client bug).
//!
//! This module is pure parse/render — no sockets, no locks — so the
//! grammar is unit-testable byte for byte; `server` owns the I/O loop.

use std::fmt;

/// Upper bound on `SUBMIT` payload lines: fleet files are big, attack
/// payloads are bigger; past this the request is refused before any
/// buffering happens.
pub const MAX_SUBMIT_LINES: usize = 1 << 20;

/// Upper bound on idempotency-token length. Tokens are identifiers, not
/// payloads; a bound keeps the server's token map small and the wire
/// grammar single-line.
pub const MAX_TOKEN_LEN: usize = 64;

/// One parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `SUBMIT <n> [token]`: `n` profile-file lines follow; the
    /// optional token makes the submit idempotent under retry.
    Submit {
        /// Number of payload lines that follow this request line.
        lines: usize,
        /// Client-supplied idempotency token, if any.
        token: Option<String>,
    },
    /// `STATUS <id>`: one-line lifecycle state.
    Status {
        /// The job id.
        id: u64,
    },
    /// `RESULT <id>`: the terminal result block, counted.
    Result {
        /// The job id.
        id: u64,
    },
    /// `WAIT <id>`: stream progress events until the job is terminal.
    Wait {
        /// The job id.
        id: u64,
    },
    /// `CANCEL <id>`: stop a queued or running job.
    Cancel {
        /// The job id.
        id: u64,
    },
    /// `FRONT <id>`: the Pareto front of the job's evaluator stream,
    /// counted.
    Front {
        /// The job id.
        id: u64,
    },
    /// `STATS`: the daemon's metric snapshot, counted.
    Stats,
    /// `SHUTDOWN`: finish the current job, persist, exit.
    Shutdown,
}

/// Checks a client-supplied idempotency token: 1–[`MAX_TOKEN_LEN`]
/// characters from `[A-Za-z0-9._-]`. The restricted charset keeps
/// tokens safe to embed in record files and log lines verbatim.
pub fn validate_token(token: &str) -> Result<(), String> {
    if token.is_empty() {
        return Err("empty idempotency token".to_string());
    }
    if token.len() > MAX_TOKEN_LEN {
        return Err(format!(
            "idempotency token of {} bytes exceeds the {MAX_TOKEN_LEN}-byte cap",
            token.len()
        ));
    }
    if let Some(bad) = token
        .chars()
        .find(|c| !c.is_ascii_alphanumeric() && !matches!(c, '.' | '_' | '-'))
    {
        return Err(format!(
            "idempotency token contains `{bad}` (allowed: A-Za-z0-9 . _ -)"
        ));
    }
    Ok(())
}

/// Derives a deterministic idempotency token from a submit payload:
/// `auto-<16 hex>` of the payload's FNV-1a-64 hash. The client uses
/// this when the caller supplies no explicit token, so *every* submit
/// is retry-safe by default — and two identical payloads submitted
/// through the auto path intentionally dedup to one job set.
pub fn derive_token(payload: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in payload.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("auto-{hash:016x}")
}

impl Request {
    /// Parses one request line. Total: any line yields a request or a
    /// one-line diagnostic (which the server echoes as `ERR ...`).
    /// Refusals the client should branch on carry a machine-readable
    /// first word (`too-large`).
    pub fn parse(line: &str) -> Result<Request, String> {
        let mut fields = line.split_whitespace();
        let verb = fields.next().ok_or_else(|| "empty request".to_string())?;
        let parsed = match verb {
            "SUBMIT" => {
                let raw = fields.next().ok_or("SUBMIT needs a line count")?;
                let lines: usize = raw
                    .parse()
                    .map_err(|_| format!("bad SUBMIT line count `{raw}`"))?;
                if lines > MAX_SUBMIT_LINES {
                    return Err(format!(
                        "too-large {MAX_SUBMIT_LINES}: SUBMIT of {lines} lines exceeds the cap"
                    ));
                }
                let token = match fields.next() {
                    Some(raw) => {
                        validate_token(raw)?;
                        Some(raw.to_string())
                    }
                    None => None,
                };
                Request::Submit { lines, token }
            }
            "STATUS" => Request::Status {
                id: job_id(&mut fields, "STATUS")?,
            },
            "RESULT" => Request::Result {
                id: job_id(&mut fields, "RESULT")?,
            },
            "WAIT" => Request::Wait {
                id: job_id(&mut fields, "WAIT")?,
            },
            "CANCEL" => Request::Cancel {
                id: job_id(&mut fields, "CANCEL")?,
            },
            "FRONT" => Request::Front {
                id: job_id(&mut fields, "FRONT")?,
            },
            "STATS" => Request::Stats,
            "SHUTDOWN" => Request::Shutdown,
            other => return Err(format!("unknown request `{other}`")),
        };
        if let Some(extra) = fields.next() {
            return Err(format!("unexpected trailing field `{extra}`"));
        }
        Ok(parsed)
    }
}

fn job_id(fields: &mut std::str::SplitWhitespace<'_>, verb: &str) -> Result<u64, String> {
    let raw = fields
        .next()
        .ok_or_else(|| format!("{verb} needs a job id"))?;
    raw.parse()
        .map_err(|_| format!("bad job id `{raw}` for {verb}"))
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Request::Submit { lines, token } => match token {
                Some(token) => write!(f, "SUBMIT {lines} {token}"),
                None => write!(f, "SUBMIT {lines}"),
            },
            Request::Status { id } => write!(f, "STATUS {id}"),
            Request::Result { id } => write!(f, "RESULT {id}"),
            Request::Wait { id } => write!(f, "WAIT {id}"),
            Request::Cancel { id } => write!(f, "CANCEL {id}"),
            Request::Front { id } => write!(f, "FRONT {id}"),
            Request::Stats => f.write_str("STATS"),
            Request::Shutdown => f.write_str("SHUTDOWN"),
        }
    }
}

/// Renders an `ERR` line: diagnostics are flattened to one line (the
/// protocol is line-oriented; a multi-line lint report becomes
/// `; `-joined clauses).
pub fn err_line(message: &str) -> String {
    let flat: Vec<&str> = message
        .lines()
        .map(str::trim_end)
        .filter(|l| !l.is_empty())
        .collect();
    format!("ERR {}\n", flat.join("; "))
}

/// Renders an `OK <verb> ...` line from pre-rendered tail words.
pub fn ok_line(tail: &str) -> String {
    format!("OK {tail}\n")
}

/// Renders a counted block response: the `OK <tail> <n>` line followed
/// by exactly `n` lines of `body`.
pub fn ok_block(tail: &str, body: &str) -> String {
    let count = body.lines().count();
    let mut out = format!("OK {tail} {count}\n");
    for line in body.lines() {
        out.push_str(line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_grammar_roundtrips() {
        for line in [
            "SUBMIT 3",
            "SUBMIT 3 deploy-42",
            "SUBMIT 3 auto-00c0ffee00c0ffee",
            "STATUS 1",
            "RESULT 7",
            "WAIT 2",
            "CANCEL 9",
            "FRONT 1",
            "STATS",
            "SHUTDOWN",
        ] {
            let req = Request::parse(line).unwrap();
            assert_eq!(req.to_string(), line);
        }
        // Whitespace-tolerant, like every parser in the workspace.
        assert_eq!(
            Request::parse("  STATUS\t5  "),
            Ok(Request::Status { id: 5 })
        );
    }

    #[test]
    fn malformed_requests_yield_one_line_diagnostics() {
        for line in [
            "",
            "submit 3",
            "SUBMIT",
            "SUBMIT x",
            "SUBMIT -1",
            "SUBMIT 3 tok~en",
            "SUBMIT 3 a b",
            "STATUS",
            "STATUS abc",
            "RESULT 1 2",
            "FRONT",
            "FRONT x",
            "FETCH 1",
            "SHUTDOWN now",
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(!err.contains('\n'), "{line:?} -> {err:?}");
        }
    }

    #[test]
    fn oversized_submit_is_a_typed_too_large_refusal() {
        let err = Request::parse(&format!("SUBMIT {}", MAX_SUBMIT_LINES + 1)).unwrap_err();
        // The machine-readable reason leads, with the limit right after,
        // so `ERR too-large 1048576: ...` is branchable by first word.
        assert!(
            err.starts_with(&format!("too-large {MAX_SUBMIT_LINES}")),
            "{err}"
        );
        // Exactly at the cap is still accepted.
        assert!(Request::parse(&format!("SUBMIT {MAX_SUBMIT_LINES}")).is_ok());
    }

    #[test]
    fn tokens_are_validated_and_derived_deterministically() {
        assert!(validate_token("deploy-42.v1_final").is_ok());
        assert!(validate_token("").is_err());
        assert!(validate_token(&"x".repeat(MAX_TOKEN_LEN + 1)).is_err());
        assert!(validate_token("has space").is_err());
        assert!(validate_token("quote\"").is_err());
        let a = derive_token("profile alice\npdrmin 0.9\n");
        let b = derive_token("profile alice\npdrmin 0.9\n");
        let c = derive_token("profile alice\npdrmin 0.8\n");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.starts_with("auto-") && a.len() == 21, "{a}");
        validate_token(&a).unwrap();
    }

    #[test]
    fn responses_are_framed_and_flattened() {
        assert_eq!(ok_line("job 1 2"), "OK job 1 2\n");
        assert_eq!(ok_block("result 1", "a\nb\n"), "OK result 1 2\na\nb\n");
        assert_eq!(ok_block("stats", ""), "OK stats 0\n");
        assert_eq!(
            err_line("profile file line 2: bad geometry\n\nsecond issue\n"),
            "ERR profile file line 2: bad geometry; second issue\n"
        );
    }
}
