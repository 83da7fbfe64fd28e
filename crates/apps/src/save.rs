//! `capture_and_save` — the capture-to-disk experiment harness.
//!
//! The paper's capture-and-save experiment (§4) runs the engine while
//! streaming every captured packet to disk, and asks what the save leg
//! costs: does writing slow capture down, and when the disk cannot keep
//! up, where do the losses land? [`run`] drives a live engine with a
//! caller-chosen [`SinkMode`]:
//!
//! * [`SinkMode::Count`] — consume and count (the pure-capture
//!   baseline);
//! * [`SinkMode::Disk`] — attach a [`capdisk::DiskSink`]; the bounded
//!   handoff's drop policy guarantees the capture path never blocks on
//!   I/O, so capture-side numbers stay comparable across modes.
//!
//! In disk mode the returned [`LiveRun::disk`] report partitions the
//! delivered packets exactly: `delivered == written + disk_drop`.

use crate::live::{drive, Consumers, LiveRun};
use capdisk::SinkMode;
use netproto::Packet;
use std::sync::Arc;
use wirecap::{LoopbackBackend, WireCapConfig};

/// Runs `traffic` (paced at `pace_pps`, 0 = saturating) through a live
/// engine over `backend` into `sink`, to end of stream.
pub fn run(
    backend: Arc<dyn LoopbackBackend>,
    cfg: WireCapConfig,
    sink: SinkMode,
    traffic: impl IntoIterator<Item = Packet>,
    pace_pps: u64,
) -> LiveRun {
    let consumers = match sink {
        SinkMode::Disk(disk) => Consumers::Disk(disk),
        SinkMode::Count => Consumers::per_queue(|_| |_| {}),
    };
    drive(backend, cfg, consumers, traffic, pace_pps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use capdisk::DiskSinkConfig;
    use netproto::{FlowKey, PacketBuilder};
    use nicsim::livenic::LiveNic;
    use std::net::Ipv4Addr;
    use wirecap::NicSimBackend;

    fn traffic(n: u64) -> impl Iterator<Item = Packet> {
        let mut b = PacketBuilder::new();
        (0..n).map(move |i| {
            let flow = FlowKey::udp(
                Ipv4Addr::new(10, 1, (i % 200) as u8, 1),
                (2_000 + i % 10_000) as u16,
                Ipv4Addr::new(131, 225, 2, 1),
                443,
            );
            b.build_packet(i * 1_000, &flow, 150).unwrap()
        })
    }

    fn cfg() -> WireCapConfig {
        let mut cfg = WireCapConfig::basic(64, 32, 0);
        cfg.capture_timeout_ns = 2_000_000;
        cfg
    }

    #[test]
    fn count_mode_delivers_everything() {
        let nic = NicSimBackend::new(LiveNic::new(2, 4096));
        let out = run(nic, cfg(), SinkMode::Count, traffic(2_000), 0);
        assert_eq!(out.delivered, 2_000);
        assert!(out.disk.is_none());
    }

    #[test]
    fn disk_mode_conserves() {
        let dir = std::env::temp_dir().join(format!("apps-save-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let nic = NicSimBackend::new(LiveNic::new(2, 4096));
        let sink = SinkMode::Disk(DiskSinkConfig::new(&dir));
        let out = run(nic, cfg(), sink, traffic(2_000), 0);
        let disk = out.disk.as_ref().expect("disk mode");
        assert_eq!(out.delivered, 2_000);
        assert!(disk.is_conserved(), "{disk:?}");
        assert_eq!(disk.written_packets() + disk.dropped_packets(), 2_000);
        let tel_written: u64 = out
            .snapshot
            .queues
            .iter()
            .map(|q| q.disk_written_packets)
            .sum();
        assert_eq!(tel_written, disk.written_packets());
        std::fs::remove_dir_all(&dir).ok();
    }
}
