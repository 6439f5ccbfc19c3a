//! Deterministic network-fault injection for chaos testing.
//!
//! [`ChaosStream`] wraps any `Read + Write` transport (in tests, the
//! client side of a TCP connection to a live server) and injects the
//! three transport failures a framed protocol must survive:
//!
//! * **torn frame** — a write delivers only a prefix of its bytes and
//!   then fails, leaving the peer holding an incomplete frame;
//! * **dropped frame** — a write is swallowed whole (nothing reaches
//!   the peer) and fails, as when a connection resets between
//!   `send()` succeeding locally and the bytes leaving the host;
//! * **stall** — an operation completes, but only after a configurable
//!   delay, exercising read-timeout and idle-detection paths.
//!
//! Faults are driven by a seeded xorshift generator, so a chaos run is
//! exactly reproducible from its [`ChaosConfig::seed`] — the property
//! the fixed-seed CI smoke job depends on. Composing this wrapper with
//! the disk-side [`FaultVfs`](warptree_disk::FaultVfs) covers both
//! halves of the failure surface: bytes lost in flight and bytes
//! corrupted at rest.

use std::io::{self, Read, Write};
use std::time::Duration;

/// Fault probabilities and determinism knobs for a [`ChaosStream`].
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for the fault schedule; equal seeds (and equal operation
    /// sequences) inject identical faults.
    pub seed: u64,
    /// Per-mille chance (0–1000) that a write is torn: a prefix is
    /// delivered, then the write fails `ConnectionReset`.
    pub torn_per_mille: u16,
    /// Per-mille chance that a write is dropped wholesale: nothing is
    /// delivered and the write fails `BrokenPipe`.
    pub drop_per_mille: u16,
    /// Per-mille chance that an operation (read or write) stalls for
    /// [`ChaosConfig::stall`] before proceeding normally.
    pub stall_per_mille: u16,
    /// How long a stalled operation sleeps.
    pub stall: Duration,
}

impl ChaosConfig {
    /// A schedule that never injects anything — a wrapped stream
    /// behaves byte-identically to the bare transport.
    pub fn disabled(seed: u64) -> Self {
        ChaosConfig {
            seed,
            torn_per_mille: 0,
            drop_per_mille: 0,
            stall_per_mille: 0,
            stall: Duration::ZERO,
        }
    }
}

/// A `Read + Write` wrapper injecting the [`ChaosConfig`] fault mix.
///
/// Faults fire on the *client's* side of the wire, so the peer (the
/// server under test) observes exactly what a hostile network would
/// show it: truncated frames, vanished requests, and long pauses —
/// never malformed length prefixes the client itself fabricated.
pub struct ChaosStream<S> {
    inner: S,
    rng: u64,
    config: ChaosConfig,
    /// Faults injected so far, by kind: `[torn, dropped, stalled]`.
    /// Tests assert the schedule actually fired.
    pub injected: [u64; 3],
}

impl<S> ChaosStream<S> {
    /// Wraps `inner` under `config`'s fault schedule.
    pub fn new(inner: S, config: ChaosConfig) -> Self {
        ChaosStream {
            inner,
            // xorshift has a fixed point at zero; nudge it off.
            rng: config.seed | 1,
            config,
            injected: [0; 3],
        }
    }

    /// The wrapped transport (e.g. to shut a TCP socket down after a
    /// torn write, completing the "client vanished mid-frame" picture).
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    /// Total faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.injected.iter().sum()
    }

    fn roll(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D) % 1000
    }

    fn maybe_stall(&mut self) {
        if self.config.stall_per_mille > 0 && self.roll() < self.config.stall_per_mille as u64 {
            self.injected[2] += 1;
            std::thread::sleep(self.config.stall);
        }
    }
}

impl<S: Read> Read for ChaosStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.maybe_stall();
        self.inner.read(buf)
    }
}

impl<S: Write> Write for ChaosStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.maybe_stall();
        if self.config.torn_per_mille > 0 && self.roll() < self.config.torn_per_mille as u64 {
            self.injected[0] += 1;
            // Deliver a strict prefix, then die: the peer now holds a
            // frame it can never complete.
            if buf.len() > 1 {
                let _ = self.inner.write(&buf[..buf.len() / 2]);
                let _ = self.inner.flush();
            }
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "chaos: torn write",
            ));
        }
        if self.config.drop_per_mille > 0 && self.roll() < self.config.drop_per_mille as u64 {
            self.injected[1] += 1;
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "chaos: dropped write",
            ));
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory sink that records everything written to it.
    #[derive(Default)]
    struct Sink(Vec<u8>);
    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn disabled_schedule_is_transparent() {
        let mut s = ChaosStream::new(Sink::default(), ChaosConfig::disabled(7));
        s.write_all(b"hello frames").unwrap();
        assert_eq!(s.get_ref().0, b"hello frames");
        assert_eq!(s.faults_injected(), 0);
    }

    #[test]
    fn torn_write_delivers_a_strict_prefix_then_fails() {
        let cfg = ChaosConfig {
            seed: 42,
            torn_per_mille: 1000, // always
            drop_per_mille: 0,
            stall_per_mille: 0,
            stall: Duration::ZERO,
        };
        let mut s = ChaosStream::new(Sink::default(), cfg);
        let err = s.write(b"0123456789").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(s.get_ref().0, b"01234"); // half the buffer
        assert_eq!(s.injected, [1, 0, 0]);
    }

    /// A frame now leaves in one write, so a torn write delivers the
    /// length prefix plus part of the payload: the peer still holds a
    /// frame it can never complete.
    #[test]
    fn torn_frame_write_leaves_an_incomplete_frame() {
        let cfg = ChaosConfig {
            seed: 42,
            torn_per_mille: 1000,
            drop_per_mille: 0,
            stall_per_mille: 0,
            stall: Duration::ZERO,
        };
        let payload = br#"{"op":"search","query":[1.0,2.0],"epsilon":0.5}"#;
        let mut s = ChaosStream::new(Sink::default(), cfg);
        let err = crate::proto::write_frame(&mut s, payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        let delivered = &s.get_ref().0;
        let frame_len = 4 + payload.len();
        assert_eq!(delivered.len(), frame_len / 2);
        assert_eq!(delivered[..4], (payload.len() as u32).to_le_bytes());
        let err = crate::proto::read_frame(&mut &delivered[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn dropped_write_delivers_nothing() {
        let cfg = ChaosConfig {
            seed: 42,
            torn_per_mille: 0,
            drop_per_mille: 1000,
            stall_per_mille: 0,
            stall: Duration::ZERO,
        };
        let mut s = ChaosStream::new(Sink::default(), cfg);
        let err = s.write(b"0123456789").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert!(s.get_ref().0.is_empty());
        assert_eq!(s.injected, [0, 1, 0]);
    }

    #[test]
    fn equal_seeds_inject_identical_schedules() {
        let cfg = ChaosConfig {
            seed: 1234,
            torn_per_mille: 300,
            drop_per_mille: 300,
            stall_per_mille: 0,
            stall: Duration::ZERO,
        };
        let run = |cfg: ChaosConfig| {
            let mut s = ChaosStream::new(Sink::default(), cfg);
            let mut outcomes = Vec::new();
            for _ in 0..64 {
                outcomes.push(s.write(b"xy").is_ok());
            }
            (outcomes, s.injected)
        };
        let a = run(cfg.clone());
        let b = run(cfg);
        assert_eq!(a, b);
        assert!(
            a.1[0] > 0 && a.1[1] > 0,
            "both fault kinds fired: {:?}",
            a.1
        );
    }
}
