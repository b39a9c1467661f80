//! The length-prefixed TCP transport: controller and agents as real
//! separate processes.
//!
//! One TCP connection per agent. The agent connects, sends a hello frame
//! naming its switch, then speaks the [`crate::frame`] protocol: the
//! controller writes [`ToAgent`] frames down the socket, and a per-connection
//! reader thread on the controller side decodes [`FromAgent`] frames and
//! forwards them into the controller's shared reply channel — exactly the
//! same mux the in-process backend uses, so the controller cannot tell a
//! socket fleet from a channel fleet. `TCP_NODELAY` is set on both ends:
//! commit-phase messages are tiny and latency-bound, so Nagle coalescing
//! would serialize the fan-out.
//!
//! Nothing here is async: one blocked reader thread per agent costs a stack,
//! and a thousand of them is well within what the soak rig's host handles —
//! the scalability lies in *phase structure* (concurrent fan-out into one
//! reply mux), not in the socket layer's thread count.

use crate::frame::{
    decode_from_agent, decode_hello, decode_to_agent, encode_from_agent, encode_hello,
    encode_to_agent, read_frame, write_frame,
};
use crate::transport::{
    AgentEndpoint, ControllerEndpoint, FromAgent, ReplyTx, ToAgent, TransportError,
};
use parking_lot::Mutex;
use snap_topology::NodeId as SwitchId;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::thread;
use std::time::Duration;

/// The controller's side of one agent's TCP connection: a send-only framed
/// writer. The paired reader thread (spawned at accept time) owns the read
/// half and pumps decoded replies into the controller's [`ReplyTx`].
pub struct TcpControllerEndpoint {
    writer: Mutex<TcpStream>,
}

impl ControllerEndpoint for TcpControllerEndpoint {
    fn send(&self, msg: ToAgent) -> Result<(), TransportError> {
        let payload = encode_to_agent(&msg);
        let mut stream = self.writer.lock();
        write_frame(&mut *stream, &payload).map_err(|_| TransportError::Disconnected)
    }
}

/// The agent's side of its controller connection.
pub struct TcpAgentEndpoint {
    reader: Mutex<TcpStream>,
    writer: Mutex<TcpStream>,
}

impl TcpAgentEndpoint {
    /// Connect to the controller's listener and introduce ourselves as
    /// `switch`. Retries briefly so a thousand agents racing one accept
    /// loop (or a child process starting before the listener) converge.
    pub fn connect(addr: impl ToSocketAddrs + Clone, switch: SwitchId) -> io::Result<Self> {
        let mut last_err = None;
        for _ in 0..50 {
            match TcpStream::connect(addr.clone()) {
                Ok(stream) => return Self::from_stream(stream, switch),
                Err(e) => {
                    last_err = Some(e);
                    thread::sleep(Duration::from_millis(40));
                }
            }
        }
        Err(last_err.unwrap_or_else(|| io::Error::other("connect failed")))
    }

    /// Wrap an already-connected stream and send the hello frame.
    pub fn from_stream(stream: TcpStream, switch: SwitchId) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        let mut writer = stream.try_clone()?;
        write_frame(&mut writer, &encode_hello(switch))?;
        Ok(TcpAgentEndpoint {
            reader: Mutex::new(stream),
            writer: Mutex::new(writer),
        })
    }
}

impl AgentEndpoint for TcpAgentEndpoint {
    fn recv(&self) -> Result<ToAgent, TransportError> {
        let mut stream = self.reader.lock();
        let payload = read_frame(&mut *stream).map_err(|_| TransportError::Disconnected)?;
        decode_to_agent(&payload).map_err(|_| TransportError::Disconnected)
    }

    fn send(&self, msg: FromAgent) -> Result<(), TransportError> {
        let payload = encode_from_agent(&msg);
        let mut stream = self.writer.lock();
        write_frame(&mut *stream, &payload).map_err(|_| TransportError::Disconnected)
    }
}

/// The controller's accept side.
pub struct TcpTransportListener {
    listener: TcpListener,
}

impl TcpTransportListener {
    /// Bind (use port 0 for an ephemeral port; see [`Self::local_addr`]).
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Ok(TcpTransportListener {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The bound address agents should connect to.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept one agent connection: read its hello, spawn the reader thread
    /// that forwards its replies into `reply`, and return the switch id it
    /// claimed plus the send-only endpoint for it.
    ///
    /// The reader thread exits when the connection drops, the peer sends a
    /// malformed frame, or the controller (reply channel) goes away.
    pub fn accept_agent(&self, reply: ReplyTx) -> io::Result<(SwitchId, TcpControllerEndpoint)> {
        let (stream, _) = self.listener.accept()?;
        stream.set_nodelay(true)?;
        let mut read_half = stream.try_clone()?;
        let hello = read_frame(&mut read_half)?;
        let switch = decode_hello(&hello)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        thread::Builder::new()
            .name(format!("tcp-reader-{}", switch.0))
            .spawn(move || {
                while let Ok(payload) = read_frame(&mut read_half) {
                    let Ok(msg) = decode_from_agent(&payload) else {
                        break;
                    };
                    if reply.send(msg).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn tcp reader");
        Ok((
            switch,
            TcpControllerEndpoint {
                writer: Mutex::new(stream),
            },
        ))
    }
}
