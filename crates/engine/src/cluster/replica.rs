//! The WAL-shipping follower: `serve-http --follow PRIMARY_ADDR`.
//!
//! A follower is an ordinary serving process — same deployments, same
//! engine, serving reads the whole time — plus one background thread that
//! polls the primary's `GET /v1/wal?deployment=&from_seq=&max=` every
//! `--poll-ms` and replays the returned records through
//! [`Engine::mutate_batch`](crate::Engine::mutate_batch). Because the
//! primary's log order equals its apply order (append-before-apply under
//! one lock), replaying the records in sequence converges the follower's
//! live graph on the primary's.
//!
//! Sequence numbers are 0-based positions in the primary's log; the
//! follower tracks `next_seq` per deployment and drains until
//! `next_seq == end_seq` each tick. Records that re-fail graph validation
//! are *counted as replayed* — the primary logs rejected mutations too
//! (append-before-apply), and they re-fail identically here, so skipping
//! them is the converged behavior, not divergence.
//!
//! Followers are deliberately log-less: durability lives in the primary's
//! WAL, and a restarted follower re-pulls from sequence 0 against its
//! fresh dataset snapshot. Combining `--follow` with `--wal-dir` is a
//! usage error for exactly that reason — replaying a pulled record into a
//! second log would double it on the follower's next restart.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::client::{HttpClient, RetryPolicy};
use crate::proto::Response;
use crate::service::Service;

/// Tuning for a follower loop.
#[derive(Debug, Clone)]
pub struct FollowerOptions {
    /// The primary's HTTP address.
    pub primary: SocketAddr,
    /// Delay between polls once caught up.
    pub poll: Duration,
    /// Most records per pull (the server additionally caps replies at
    /// [`crate::service::WAL_PULL_MAX_RECORDS`]).
    pub max_per_pull: u64,
}

impl FollowerOptions {
    /// Options with the default pull size.
    pub fn new(primary: SocketAddr, poll: Duration) -> Self {
        FollowerOptions {
            primary,
            poll,
            max_per_pull: 4096,
        }
    }
}

/// A running follower loop. [`FollowerHandle::stop`] ends it; dropping the
/// handle leaves the loop running for the life of the process (the CLI
/// foreground path).
#[derive(Debug)]
pub struct FollowerHandle {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl FollowerHandle {
    /// Signals the loop to stop and joins it (returns after at most one
    /// poll interval plus the in-flight pull).
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Starts the follower loop over every deployment in `service`'s registry.
/// Each deployment is pulled under its own name, so the primary must
/// register the same names (the usual case: primary and followers start
/// from the same `--deployment` flags).
pub fn start(service: Arc<Service>, options: FollowerOptions) -> FollowerHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let thread = {
        let stop = stop.clone();
        std::thread::spawn(move || follower_loop(&service, &options, &stop))
    };
    FollowerHandle {
        stop,
        thread: Some(thread),
    }
}

/// Per-deployment replication cursor.
struct Cursor {
    name: String,
    next_seq: u64,
    /// Last error line printed, to keep a flapping primary from flooding
    /// stderr: only state *changes* are logged.
    last_error: Option<String>,
}

fn follower_loop(service: &Service, options: &FollowerOptions, stop: &AtomicBool) {
    let mut cursors: Vec<Cursor> = service
        .registry()
        .names()
        .iter()
        .map(|name| Cursor {
            name: name.to_string(),
            next_seq: 0,
            last_error: None,
        })
        .collect();
    // One connection, reconnected lazily: the poll cadence keeps it warm,
    // and `HttpClient` already drops it on I/O errors. Retries are left to
    // the loop itself (the next tick *is* the retry).
    let mut client: Option<HttpClient> = None;
    while !stop.load(Ordering::SeqCst) {
        for cursor in &mut cursors {
            // Drain this deployment's backlog completely each tick, so
            // replication lag after a burst is one poll interval, not
            // records/max_per_pull intervals.
            loop {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                match pull_once(service, options, &mut client, cursor) {
                    Ok(caught_up) => {
                        if caught_up {
                            break;
                        }
                    }
                    Err(detail) => {
                        if cursor.last_error.as_deref() != Some(detail.as_str()) {
                            eprintln!(
                                "[tfsn] follow {}: deployment `{}`: {detail} (retrying \
                                 every {:?})",
                                options.primary, cursor.name, options.poll
                            );
                            cursor.last_error = Some(detail);
                        }
                        break;
                    }
                }
            }
        }
        // An interruptible sleep: check the stop flag every 25 ms so
        // `FollowerHandle::stop` returns promptly even with long polls.
        let mut remaining = options.poll;
        while !remaining.is_zero() && !stop.load(Ordering::SeqCst) {
            let nap = remaining.min(Duration::from_millis(25));
            std::thread::sleep(nap);
            remaining -= nap;
        }
    }
}

/// One pull + replay. `Ok(true)` = caught up (stop draining this tick);
/// `Ok(false)` = more records remain; `Err` = transport or protocol
/// failure (logged once per streak by the caller).
fn pull_once(
    service: &Service,
    options: &FollowerOptions,
    client: &mut Option<HttpClient>,
    cursor: &mut Cursor,
) -> Result<bool, String> {
    if client.is_none() {
        *client = Some(
            HttpClient::connect_with(options.primary, RetryPolicy::none())
                .map_err(|e| format!("connect: {e}"))?,
        );
    }
    let conn = client.as_mut().expect("connection just ensured");
    let target = format!(
        "/v1/wal?deployment={}&from_seq={}&max={}",
        percent_encode(&cursor.name),
        cursor.next_seq,
        options.max_per_pull,
    );
    let reply = match conn.get(&target) {
        Ok(reply) => reply,
        Err(e) => {
            *client = None;
            return Err(format!("pull: {e}"));
        }
    };
    let response =
        Response::parse_json(&reply.body).map_err(|e| format!("parse wal_records: {e}"))?;
    let (records, next_seq, end_seq) = match response {
        Response::WalRecords {
            records,
            next_seq,
            end_seq,
            ..
        } => (records, next_seq, end_seq),
        Response::Error(e) => return Err(format!("primary answered: {e}")),
        other => return Err(format!("unexpected `{}` response to wal_pull", other.op())),
    };
    if records.is_empty() {
        // Caught up (or the primary's log is still behind our cursor after
        // a primary rebuild — either way there is nothing to apply).
        return Ok(true);
    }
    let engine = service
        .engine(Some(&cursor.name))
        .map_err(|e| format!("load deployment: {e}"))?;
    // The whole pulled window replays as one batch: one write-order
    // acquisition, one merged invalidation sweep, one local WAL group per
    // chunk — instead of thrashing the row cache once per record.
    // Rejected mutations are in the primary's log too
    // (append-before-apply); re-failing identically *is* the converged
    // state (reported per-mutation in the batch outcomes), so the cursor
    // still advances.
    match engine.mutate_batch(&records) {
        Ok(_) => {}
        Err(crate::MutateError::Graph(_)) => {}
        Err(crate::MutateError::Wal(e)) => {
            return Err(format!("local wal append during replay: {e}"));
        }
    }
    engine.note_replicated(next_seq);
    cursor.next_seq = next_seq;
    cursor.last_error = None;
    Ok(next_seq >= end_seq)
}

/// Minimal percent-encoding for a query-string value: everything outside
/// the unreserved set is `%XX`-escaped.
pub(crate) fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_encode_escapes_reserved_bytes() {
        assert_eq!(percent_encode("tiny"), "tiny");
        assert_eq!(percent_encode("a b&c=d"), "a%20b%26c%3Dd");
        assert_eq!(percent_encode("sd-1.2_x~"), "sd-1.2_x~");
    }
}
