//! Deterministic bandwidth/latency links with in-sim-time serialization.

use serde::{Deserialize, Serialize};

/// Static description of one network path (portal→site, server→client).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Sustained throughput in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// Fixed per-transfer setup cost in seconds (connection + request).
    pub latency_seconds: f64,
}

impl LinkSpec {
    /// A link moving `mb_per_sec` megabytes per second with `latency_seconds`
    /// setup cost.
    pub fn mbps(mb_per_sec: f64, latency_seconds: f64) -> LinkSpec {
        LinkSpec {
            bandwidth_bytes_per_sec: mb_per_sec * 1e6,
            latency_seconds,
        }
    }
}

/// When a transfer scheduled on a [`Link`] actually ran.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TransferOutcome {
    /// Seconds the transfer waited behind earlier transfers on the link.
    pub queued_seconds: f64,
    /// Seconds from the request until the last byte arrived (wait + latency
    /// + payload). This is the stage-in delay the requester observes.
    pub total_seconds: f64,
    /// Bytes moved.
    pub bytes: u64,
}

/// One shared pipe that serializes its transfers in simulation time.
///
/// The link keeps a single `busy_until` horizon: a transfer requested at
/// `now` starts at `max(now, busy_until)`, pays the spec latency, then
/// streams its payload at the spec bandwidth. Concurrent requests therefore
/// queue behind each other exactly as on a real shared uplink, and the model
/// stays deterministic — same request sequence, same horizon.
///
/// In a snapshot the busy horizon is the live state (a restored link must
/// keep queueing transfers behind whatever was in flight); the counters ride
/// along so lifetime accounting survives a resume.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Link {
    spec: LinkSpec,
    busy_until: f64,
    bytes_moved: u64,
    transfers: u64,
    busy_seconds: f64,
    queued_seconds: f64,
}

impl Link {
    /// An idle link with the given spec.
    pub fn new(spec: LinkSpec) -> Link {
        assert!(
            spec.bandwidth_bytes_per_sec > 0.0,
            "link bandwidth must be positive"
        );
        assert!(spec.latency_seconds >= 0.0, "latency must be non-negative");
        Link {
            spec,
            busy_until: 0.0,
            bytes_moved: 0,
            transfers: 0,
            busy_seconds: 0.0,
            queued_seconds: 0.0,
        }
    }

    /// The static spec.
    pub fn spec(&self) -> LinkSpec {
        self.spec
    }

    /// Seconds until a transfer of `bytes` requested at `now_seconds` would
    /// complete, without committing it (the scheduler's estimate).
    /// Zero-byte transfers are free: nothing to move, nothing to queue.
    pub fn estimate_seconds(&self, now_seconds: f64, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        let start = self.busy_until.max(now_seconds);
        let done =
            start + self.spec.latency_seconds + bytes as f64 / self.spec.bandwidth_bytes_per_sec;
        done - now_seconds
    }

    /// Commit a transfer of `bytes` requested at `now_seconds`, advancing
    /// the link's busy horizon. Zero-byte transfers are a no-op.
    pub fn transfer(&mut self, now_seconds: f64, bytes: u64) -> TransferOutcome {
        if bytes == 0 {
            return TransferOutcome {
                queued_seconds: 0.0,
                total_seconds: 0.0,
                bytes: 0,
            };
        }
        let start = self.busy_until.max(now_seconds);
        let occupied = self.spec.latency_seconds + bytes as f64 / self.spec.bandwidth_bytes_per_sec;
        let done = start + occupied;
        let queued = start - now_seconds;
        self.busy_until = done;
        self.bytes_moved += bytes;
        self.transfers += 1;
        self.busy_seconds += occupied;
        self.queued_seconds += queued;
        TransferOutcome {
            queued_seconds: queued,
            total_seconds: done - now_seconds,
            bytes,
        }
    }

    /// Total bytes moved over the link's lifetime.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Committed transfers.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Seconds the link spent occupied (latency + payload streaming).
    pub fn busy_seconds(&self) -> f64 {
        self.busy_seconds
    }

    /// Seconds transfers spent queued behind earlier ones, summed.
    pub fn queued_seconds(&self) -> f64 {
        self.queued_seconds
    }

    /// Fraction of `[0, now_seconds]` the link was occupied (clamped to 1).
    pub fn utilisation(&self, now_seconds: f64) -> f64 {
        if now_seconds <= 0.0 {
            0.0
        } else {
            (self.busy_seconds / now_seconds).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_link_transfer_pays_latency_plus_payload() {
        let mut link = Link::new(LinkSpec::mbps(10.0, 0.5)); // 10 MB/s
        let out = link.transfer(100.0, 20_000_000); // 20 MB -> 2 s
        assert!((out.total_seconds - 2.5).abs() < 1e-9);
        assert_eq!(out.queued_seconds, 0.0);
        assert_eq!(link.bytes_moved(), 20_000_000);
    }

    #[test]
    fn concurrent_transfers_serialize() {
        let mut link = Link::new(LinkSpec::mbps(10.0, 0.0));
        let a = link.transfer(0.0, 10_000_000); // 1 s: busy until 1.0
        let b = link.transfer(0.0, 10_000_000); // queues 1 s, done at 2.0
        assert!((a.total_seconds - 1.0).abs() < 1e-9);
        assert!((b.queued_seconds - 1.0).abs() < 1e-9);
        assert!((b.total_seconds - 2.0).abs() < 1e-9);
        // A later request after the horizon clears does not queue.
        let c = link.transfer(10.0, 10_000_000);
        assert_eq!(c.queued_seconds, 0.0);
        assert!((link.busy_seconds() - 3.0).abs() < 1e-9);
        assert_eq!(link.transfers(), 3);
    }

    #[test]
    fn estimate_matches_commit_and_does_not_mutate() {
        let mut link = Link::new(LinkSpec::mbps(5.0, 1.0));
        link.transfer(0.0, 5_000_000); // busy until 2.0
        let est = link.estimate_seconds(1.0, 10_000_000);
        let out = link.transfer(1.0, 10_000_000);
        assert!((est - out.total_seconds).abs() < 1e-9);
        // 1 s queued + 1 s latency + 2 s payload.
        assert!((out.total_seconds - 4.0).abs() < 1e-9);
    }

    #[test]
    fn zero_bytes_are_free() {
        let mut link = Link::new(LinkSpec::mbps(1.0, 5.0));
        assert_eq!(link.estimate_seconds(0.0, 0), 0.0);
        let out = link.transfer(0.0, 0);
        assert_eq!(out.total_seconds, 0.0);
        assert_eq!(link.transfers(), 0);
        assert_eq!(link.busy_seconds(), 0.0);
    }

    #[test]
    fn serde_roundtrip_preserves_busy_horizon() {
        let mut link = Link::new(LinkSpec::mbps(10.0, 0.5));
        link.transfer(0.0, 10_000_000); // busy until 1.5
        let json = serde_json::to_string(&link).unwrap();
        let mut back: Link = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        // A transfer committed after restore queues behind the in-flight one
        // exactly as on the original link.
        let a = link.transfer(0.0, 1_000_000);
        let b = back.transfer(0.0, 1_000_000);
        assert_eq!(a.total_seconds.to_bits(), b.total_seconds.to_bits());
        assert_eq!(a.queued_seconds.to_bits(), b.queued_seconds.to_bits());
        assert_eq!(back.bytes_moved(), link.bytes_moved());
    }

    #[test]
    fn utilisation_is_busy_over_elapsed() {
        let mut link = Link::new(LinkSpec::mbps(1.0, 0.0));
        link.transfer(0.0, 2_000_000); // 2 s busy
        assert!((link.utilisation(4.0) - 0.5).abs() < 1e-9);
        assert_eq!(link.utilisation(0.0), 0.0);
        assert_eq!(link.utilisation(1.0), 1.0); // clamped
    }
}
