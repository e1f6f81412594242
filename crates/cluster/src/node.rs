//! The cluster node: a protocol listener wrapping an in-process
//! [`ServeCore`].
//!
//! A node is the unit of horizontal scale. It answers three things on
//! its TCP port: encode requests (delegated to the serve scheduler,
//! byte-identical to a direct in-process encode), heartbeats (answered
//! with the scheduler's queue depth and the drain state — the registry
//! is not consulted), and drain commands (stop accepting encodes,
//! finish what is queued).
//!
//! Two test-only knobs exist for chaos and benchmarking:
//! [`ClusterNode::set_artificial_delay`] slows *this* node's encodes
//! (the `gobo-fault` registry is process-global, so a delay failpoint
//! cannot target one node of an in-process cluster), and
//! [`ClusterNode::set_partitioned`] simulates an asymmetric network
//! partition — frames are read but never answered, which is exactly
//! the failure hedged requests exist for.

use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use gobo_proto::frame::{
    read_frame, write_frame, EncodeErrFrame, EncodeRequestFrame, EncodeResponseFrame, Frame,
    HeartbeatAckFrame, ProtoError, MAX_PAYLOAD,
};
use gobo_serve::{EncodeRequest, Listener, ServeCore, ShutdownSignal};

/// How long a partitioned connection re-checks its parking condition.
const PARTITION_POLL: Duration = Duration::from_millis(5);

struct NodeShared {
    core: Arc<ServeCore>,
    stop: AtomicBool,
    draining: AtomicBool,
    partitioned: AtomicBool,
    artificial_delay_us: AtomicU64,
    drain_signal: ShutdownSignal,
}

/// A running protocol listener over a [`ServeCore`].
pub struct ClusterNode {
    shared: Arc<NodeShared>,
    listener: Listener,
}

impl ClusterNode {
    /// Binds `addr` (port 0 for ephemeral) and starts serving the
    /// cluster protocol over `core`.
    ///
    /// # Errors
    ///
    /// Propagates socket failures.
    pub fn start(core: Arc<ServeCore>, addr: &str) -> std::io::Result<ClusterNode> {
        let shared = Arc::new(NodeShared {
            core,
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            partitioned: AtomicBool::new(false),
            artificial_delay_us: AtomicU64::new(0),
            drain_signal: ShutdownSignal::new(),
        });
        let listener = {
            let shared = Arc::clone(&shared);
            Listener::spawn(addr, "gobo-node-accept", move |stream| {
                let _ = handle_conn(&shared, &stream);
                // The listener tracks a clone of this socket, so dropping
                // ours closes nothing. A router keeps its connections
                // pooled: it must see EOF the moment this handler is gone
                // (idle read timeout, bad frame), not write its next
                // request into a socket nobody reads.
                let _ = stream.shutdown(Shutdown::Both);
            })?
        };
        Ok(ClusterNode { shared, listener })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Adds a fixed delay to every encode on *this* node — the
    /// slow-replica knob for hedging benchmarks.
    pub fn set_artificial_delay(&self, delay: Duration) {
        self.shared.artificial_delay_us.store(delay.as_micros() as u64, Ordering::Relaxed);
    }

    /// Simulates an asymmetric partition: while set, connections read
    /// frames but never answer, so peers see timeouts instead of
    /// resets.
    pub fn set_partitioned(&self, partitioned: bool) {
        self.shared.partitioned.store(partitioned, Ordering::Release);
    }

    /// Whether a drain has been requested (via frame or locally).
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    /// Begins drain locally: new encodes are rejected with
    /// `shutting_down`, heartbeat acks advertise `draining`.
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::Release);
        self.shared.drain_signal.request();
    }

    /// Blocks until a drain has been requested (by a [`Frame::Drain`]
    /// from the router or [`ClusterNode::begin_drain`]).
    pub fn wait_drain(&self) {
        self.shared.drain_signal.wait();
    }

    /// Hard stop: close the listener, shut down every connection, join
    /// all threads. The serve core is left to the caller (it may be
    /// shared). Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.drain_signal.request();
        // Both halves at once: a router blocked reading an answer from
        // this node must see the kill now, not after its timeout.
        self.listener.stop(Shutdown::Both);
    }
}

impl Drop for ClusterNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn handle_conn(shared: &NodeShared, stream: &TcpStream) -> Result<(), ProtoError> {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
    let mut reader = BufReader::new(stream);
    let mut writer = stream;
    loop {
        gobo_sanitize::blocking_io("cluster.node.read_frame");
        let frame = match read_frame(&mut reader, MAX_PAYLOAD)? {
            Some(frame) => frame,
            None => return Ok(()), // peer closed cleanly
        };
        gobo_fault::fail_point!(
            "cluster.node.recv",
            ProtoError::Corrupt("injected cluster.node.recv fault".to_string())
        );
        // Partition simulation: the request was received but the
        // answer never leaves. Park until healed or stopped.
        while shared.partitioned.load(Ordering::Acquire) && !shared.stop.load(Ordering::Acquire) {
            std::thread::sleep(PARTITION_POLL);
        }
        if shared.stop.load(Ordering::Acquire) {
            return Ok(());
        }
        let drain = matches!(frame, Frame::Drain);
        let reply = match frame {
            Frame::EncodeRequest(request) => Some(handle_encode(shared, request)),
            Frame::Heartbeat { seq } => Some(heartbeat_ack(shared, seq)),
            Frame::Drain => {
                shared.draining.store(true, Ordering::Release);
                Some(Frame::DrainAck)
            }
            // Responses/acks arriving at a node are protocol misuse;
            // drop the connection rather than guess.
            Frame::EncodeResponse(_) | Frame::HeartbeatAck(_) | Frame::DrainAck => None,
        };
        let Some(reply) = reply else {
            return Err(ProtoError::Corrupt("unexpected frame kind for a node".to_string()));
        };
        gobo_sanitize::blocking_io("cluster.node.write_frame");
        let written = write_frame(&mut writer, &reply).map_err(ProtoError::Io);
        if drain {
            // Signalled only once the ack is on the wire: whoever waits
            // for the drain goes on to hard-stop this listener, which
            // shuts this socket down under anything still unwritten.
            shared.drain_signal.request();
        }
        written?;
    }
}

fn handle_encode(shared: &NodeShared, request: EncodeRequestFrame) -> Frame {
    let delay_us = shared.artificial_delay_us.load(Ordering::Relaxed);
    if delay_us > 0 {
        std::thread::sleep(Duration::from_micros(delay_us));
    }
    let id = request.id;
    if shared.draining.load(Ordering::Acquire) {
        return Frame::EncodeResponse(EncodeResponseFrame {
            id,
            result: Err(EncodeErrFrame {
                code: "shutting_down".to_string(),
                message: "node is draining".to_string(),
            }),
        });
    }
    let encode = EncodeRequest {
        model: request.model,
        bits: if request.bits == 0 { None } else { Some(request.bits) },
        ids: request.ids.iter().map(|&v| v as usize).collect(),
        type_ids: request.type_ids.iter().map(|&v| v as usize).collect(),
        deadline: if request.deadline_ms == 0 {
            None
        } else {
            Some(Duration::from_millis(request.deadline_ms))
        },
    };
    let result = match shared.core.scheduler().encode_blocking(encode) {
        Ok(response) => Ok(response.into()),
        Err(e) => Err(EncodeErrFrame { code: e.code().to_string(), message: e.to_string() }),
    };
    Frame::EncodeResponse(EncodeResponseFrame { id, result })
}

fn heartbeat_ack(shared: &NodeShared, seq: u64) -> Frame {
    Frame::HeartbeatAck(HeartbeatAckFrame {
        seq,
        queue_depth: shared.core.scheduler().queue_depth() as u32,
        draining: shared.draining.load(Ordering::Acquire),
    })
}
