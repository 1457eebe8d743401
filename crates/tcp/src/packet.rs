//! Packets and the TCP simulation message type.
//!
//! The only non-standard header field is `cr` — the sender's current rate
//! stamp the paper's router mechanisms read ("the source … indicates its
//! current rate (CR) in the IP (or TCP) header"). `ecn` models the
//! EFCI-style congestion bit of the paper's marking mechanism.

/// Identifier of one TCP flow (one direction of a connection).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(pub u32);

/// Payload-level kind of a packet.
#[derive(Clone, Copy, Debug)]
pub enum PktKind {
    /// A data segment carrying bytes `[seq, seq + len)`.
    Data {
        /// First byte number of the segment.
        seq: u64,
        /// Payload length in bytes.
        len: u32,
    },
    /// A cumulative acknowledgement: all bytes below `ack` received.
    Ack {
        /// Next byte expected by the receiver.
        ack: u64,
        /// Congestion-mark echo (receiver saw `ecn` on the data packet).
        ecn_echo: bool,
    },
    /// An ICMP Source Quench addressed to the flow's sender.
    Quench,
}

/// One packet in flight.
#[derive(Clone, Copy, Debug)]
pub struct Packet {
    /// The flow this packet belongs to.
    pub flow: FlowId,
    /// Kind and sequence information.
    pub kind: PktKind,
    /// The sender's current-rate stamp, bytes/s (0 on ACKs and quenches).
    pub cr: f64,
    /// EFCI/ECN congestion bit, set by routers.
    pub ecn: bool,
    /// Wire size in bytes (payload + headers), used for serialization
    /// delay and byte counting.
    pub wire: u32,
}

impl Packet {
    /// A data segment of `len` payload bytes with the given CR stamp.
    /// Wire size is payload + 40 bytes of TCP/IP header.
    pub fn data(flow: FlowId, seq: u64, len: u32, cr: f64) -> Self {
        Packet {
            flow,
            kind: PktKind::Data { seq, len },
            cr,
            ecn: false,
            wire: len + 40,
        }
    }

    /// A 40-byte cumulative ACK.
    pub fn ack(flow: FlowId, ack: u64, ecn_echo: bool) -> Self {
        Packet {
            flow,
            kind: PktKind::Ack { ack, ecn_echo },
            cr: 0.0,
            ecn: false,
            wire: 40,
        }
    }

    /// A 40-byte Source Quench.
    pub fn quench(flow: FlowId) -> Self {
        Packet {
            flow,
            kind: PktKind::Quench,
            cr: 0.0,
            ecn: false,
            wire: 40,
        }
    }

    /// True for data segments (the only packets Phantom mechanisms act on).
    pub fn is_data(&self) -> bool {
        matches!(self.kind, PktKind::Data { .. })
    }

    /// True for packets travelling toward the sender (ACKs, quenches).
    pub fn is_reverse(&self) -> bool {
        !self.is_data()
    }
}

/// Everything that can be delivered to a TCP-domain node.
#[derive(Clone, Copy, Debug)]
pub enum TcpMsg {
    /// A packet arriving over a link.
    Pkt(Packet),
    /// A node-internal timer.
    Timer(TcpTimer),
}

/// Timer kinds, multiplexed per node.
#[derive(Clone, Copy, Debug)]
pub enum TcpTimer {
    /// Source: NIC may transmit the next packet.
    Tick,
    /// Source: retransmission timeout with a generation counter (stale
    /// timers are ignored).
    Rto {
        /// Generation at scheduling time.
        gen: u64,
    },
    /// Source: sample the current rate (CR) for header stamping.
    CrSample,
    /// Router: head-of-line packet of `port` finished serializing.
    TxDone {
        /// Output-port index.
        port: usize,
    },
    /// Router: end of a measurement interval on `port`.
    Measure {
        /// Output-port index.
        port: usize,
    },
    /// Sink: the delayed-ACK timer expired.
    DelayedAck,
    /// Router: change `port`'s capacity to `bps` bytes/s (models a
    /// bottleneck whose bandwidth is allocated by an underlying network,
    /// e.g. an ATM ABR virtual circuit).
    SetRate {
        /// Output-port index.
        port: usize,
        /// New capacity, bytes/s.
        bps: f64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_fill_wire_sizes() {
        let d = Packet::data(FlowId(1), 512, 512, 1e6);
        assert_eq!(d.wire, 552);
        assert!(d.is_data());
        assert!(!d.is_reverse());
        let a = Packet::ack(FlowId(1), 1024, false);
        assert_eq!(a.wire, 40);
        assert!(a.is_reverse());
        let q = Packet::quench(FlowId(1));
        assert_eq!(q.wire, 40);
        assert!(q.is_reverse());
    }

    #[test]
    fn cr_defaults_to_zero_on_control_packets() {
        assert_eq!(Packet::ack(FlowId(0), 0, false).cr, 0.0);
        assert_eq!(Packet::quench(FlowId(0)).cr, 0.0);
    }
}
