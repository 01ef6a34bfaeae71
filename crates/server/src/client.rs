//! A blocking client for the tracking server.
//!
//! [`Connection`] exposes raw [`send`](Connection::send) /
//! [`recv`](Connection::recv) for pipelined use (the load generator keeps
//! a window of un-acked pushes in flight) plus strict request/response
//! helpers for tests and tools.

use crate::wire::{
    read_frame, read_frame_traced, write_frame, write_frame_traced, ErrorCode, Frame, ReadingRound,
    RecvError, RoundResult, DEFAULT_MAX_FRAME,
};
use std::net::{TcpStream, ToSocketAddrs};

/// Everything a request/response helper can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure or peer hangup.
    Io(std::io::Error),
    /// The peer's bytes did not decode.
    Protocol(crate::wire::WireError),
    /// The server answered with [`Frame::Error`].
    Server {
        /// Why.
        code: ErrorCode,
        /// The session id / tag the error refers to.
        context: u64,
        /// Server-provided detail.
        detail: String,
    },
    /// The server answered with a frame the request does not expect.
    Unexpected(Frame),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
            ClientError::Server {
                code,
                context,
                detail,
            } => write!(f, "server error {code:?} (context {context}): {detail}"),
            ClientError::Unexpected(frame) => write!(f, "unexpected reply frame {frame:?}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<RecvError> for ClientError {
    fn from(e: RecvError) -> Self {
        match e {
            RecvError::Closed => ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            RecvError::Io(e) => ClientError::Io(e),
            RecvError::Protocol(e) => ClientError::Protocol(e),
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A session opened via [`Connection::open_session`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenInfo {
    /// The server-assigned session id.
    pub session: u64,
    /// Map epoch the session opened on; it follows every later churn.
    pub epoch: u64,
    /// Digest of the map the session matches against.
    pub map_digest: u64,
}

/// One blocking connection to a tracking server.
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    max_frame: u32,
}

impl Connection {
    /// Connects with the default frame bound.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Connection {
            stream,
            max_frame: DEFAULT_MAX_FRAME,
        })
    }

    /// Sends one frame.
    pub fn send(&mut self, frame: &Frame) -> std::io::Result<()> {
        write_frame(&mut self.stream, frame)
    }

    /// Sends one frame carrying a correlation `trace` id (v2 wire frame
    /// unless `trace` is 0, which degrades to plain v1). The server
    /// echoes the id in its reply and stamps it into its journal, so a
    /// traced client run can be joined against the server's trace.
    pub fn send_traced(&mut self, frame: &Frame, trace: u64) -> std::io::Result<()> {
        write_frame_traced(&mut self.stream, frame, trace)
    }

    /// Receives one frame.
    pub fn recv(&mut self) -> Result<Frame, RecvError> {
        read_frame(&mut self.stream, self.max_frame)
    }

    /// Receives one frame together with its echoed trace id (0 for
    /// untraced v1 replies).
    pub fn recv_traced(&mut self) -> Result<(Frame, u64), RecvError> {
        read_frame_traced(&mut self.stream, self.max_frame)
    }

    fn expect_reply(&mut self) -> Result<Frame, ClientError> {
        match self.recv()? {
            Frame::Error {
                code,
                context,
                detail,
            } => Err(ClientError::Server {
                code,
                context,
                detail,
            }),
            frame => Ok(frame),
        }
    }

    /// Opens a session (request/response).
    pub fn open_session(
        &mut self,
        client_tag: u64,
        extended: bool,
    ) -> Result<OpenInfo, ClientError> {
        self.send(&Frame::Open {
            client_tag,
            extended,
        })?;
        match self.expect_reply()? {
            Frame::OpenAck {
                client_tag: tag,
                session,
                epoch,
                map_digest,
            } if tag == client_tag => Ok(OpenInfo {
                session,
                epoch,
                map_digest,
            }),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Pushes a batch of rounds and waits for its results; returns the
    /// per-round results and the session's running digest.
    pub fn push_rounds(
        &mut self,
        session: u64,
        rounds: Vec<ReadingRound>,
    ) -> Result<(Vec<RoundResult>, u64), ClientError> {
        self.send(&Frame::Push { session, rounds })?;
        match self.expect_reply()? {
            Frame::Rounds {
                session: s,
                results,
                digest,
            } if s == session => Ok((results, digest)),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Closes a session; returns `(rounds stepped, final digest)`.
    pub fn close_session(&mut self, session: u64) -> Result<(u64, u64), ClientError> {
        self.send(&Frame::Close { session })?;
        match self.expect_reply()? {
            Frame::CloseAck {
                session: s,
                rounds,
                digest,
            } if s == session => Ok((rounds, digest)),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Kills (`death`) or revives a deployment node on the server's shared
    /// map; returns `(new epoch, new map digest)`.
    pub fn churn(&mut self, node: u32, death: bool) -> Result<(u64, u64), ClientError> {
        self.send(&Frame::Churn { node, death })?;
        match self.expect_reply()? {
            Frame::ChurnAck { epoch, map_digest } => Ok((epoch, map_digest)),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Asks the server process to shut down.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.send(&Frame::Shutdown)?;
        match self.expect_reply()? {
            Frame::ShutdownAck => Ok(()),
            other => Err(ClientError::Unexpected(other)),
        }
    }
}
