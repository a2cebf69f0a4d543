//! Byte-stream transports: TCP sockets and stdio pipes behind one trait.
//!
//! The daemon's connection loop is generic over [`Transport`], so the
//! same request dispatch serves a [`std::net::TcpStream`] (the network
//! daemon) and a stdin/stdout pair (the `--stdio` single-client mode, as
//! used by process supervisors and tests).

use crate::protocol::{read_frame, write_frame, Frame, ProtocolError, Recv};
use std::io::{BufReader, Read, Write};

/// One bidirectional frame channel. Reads block until a frame or the end
/// of the stream arrives: the daemon sets no read timeout, and a drain
/// ends its connections by shutting their streams down for reading.
pub trait Transport {
    /// Receives the next frame (or [`Recv::Eof`]).
    fn recv(&mut self) -> Result<Recv, ProtocolError>;
    /// Sends one frame.
    fn send(&mut self, frame: &Frame) -> Result<(), ProtocolError>;
}

/// A transport over one full-duplex byte stream (e.g.
/// [`std::net::TcpStream`]). Reads go through a buffer, so a frame that
/// arrives whole costs one `read` call and a second frame that arrived
/// with it stays buffered for the next [`Transport::recv`]; writes go
/// straight to the stream, one `write` per frame.
#[derive(Debug)]
pub struct StreamTransport<S> {
    stream: BufReader<S>,
}

impl<S: Read + Write> StreamTransport<S> {
    /// Wraps the stream.
    pub fn new(stream: S) -> StreamTransport<S> {
        StreamTransport {
            stream: BufReader::new(stream),
        }
    }

    /// The underlying stream.
    pub fn get_ref(&self) -> &S {
        self.stream.get_ref()
    }
}

impl<S: Read + Write> Transport for StreamTransport<S> {
    fn recv(&mut self) -> Result<Recv, ProtocolError> {
        read_frame(&mut self.stream)
    }

    fn send(&mut self, frame: &Frame) -> Result<(), ProtocolError> {
        write_frame(self.stream.get_mut(), frame)
    }
}

/// A transport over separate read and write halves (stdin/stdout, or an
/// in-memory pipe pair in tests).
#[derive(Debug)]
pub struct DuplexTransport<R, W> {
    reader: R,
    writer: W,
}

impl<R: Read, W: Write> DuplexTransport<R, W> {
    /// Wraps the halves.
    pub fn new(reader: R, writer: W) -> DuplexTransport<R, W> {
        DuplexTransport { reader, writer }
    }
}

impl<R: Read, W: Write> Transport for DuplexTransport<R, W> {
    fn recv(&mut self) -> Result<Recv, ProtocolError> {
        read_frame(&mut self.reader)
    }

    fn send(&mut self, frame: &Frame) -> Result<(), ProtocolError> {
        write_frame(&mut self.writer, frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Verb;
    use std::io::ErrorKind;

    /// A scripted byte stream: each `read` returns the next chunk of
    /// `input` (or an `Interrupted` error for an empty chunk) and is
    /// counted; writes are kept.
    struct Scripted {
        input: Vec<u8>,
        pos: usize,
        chunks: Vec<usize>,
        reads: usize,
        output: Vec<u8>,
    }

    impl Scripted {
        /// Serves `frames`' bytes in reads of the given chunk sizes, in a
        /// cycle.
        fn new(frames: &[Frame], chunks: Vec<usize>) -> Scripted {
            let mut input = Vec::new();
            for frame in frames {
                write_frame(&mut input, frame).unwrap();
            }
            Scripted {
                input,
                pos: 0,
                chunks,
                reads: 0,
                output: Vec::new(),
            }
        }
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let chunk = self.chunks[self.reads % self.chunks.len()];
            self.reads += 1;
            if chunk == 0 {
                return Err(ErrorKind::Interrupted.into());
            }
            let n = chunk.min(buf.len()).min(self.input.len() - self.pos);
            buf[..n].copy_from_slice(&self.input[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.output.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn frames() -> Vec<Frame> {
        vec![
            Frame::hello(),
            Frame::new(Verb::Propagate, "7\nnop:r#0(del:a#1)"),
            Frame::ok(""),
            Frame::retry(5),
        ]
    }

    #[test]
    fn byte_at_a_time_reads_with_interrupts_decode_every_frame() {
        // one byte per read and an interrupted read between any two bytes:
        // through the buffered stream transport and through a bare reader
        // alike, every frame decodes, whether the interrupt falls between
        // frames or inside one
        let sent = frames();
        for buffered in [true, false] {
            let mut stream = StreamTransport::new(Scripted::new(&sent, vec![0, 1]));
            let mut bare = DuplexTransport::new(Scripted::new(&sent, vec![0, 1]), Vec::new());
            let mut got = Vec::new();
            loop {
                let recv = if buffered {
                    stream.recv().unwrap()
                } else {
                    bare.recv().unwrap()
                };
                match recv {
                    Recv::Frame(f) => got.push(f),
                    Recv::Eof => break,
                }
            }
            assert_eq!(got, sent, "buffered: {buffered}");
            let reader = if buffered {
                stream.get_ref()
            } else {
                &bare.reader
            };
            assert!(
                reader.reads > 2 * reader.input.len(),
                "{} reads: interrupts reached the reader",
                reader.reads
            );
        }
    }

    #[test]
    fn frames_that_arrive_in_one_read_decode_in_order() {
        // both frames come in the first read: the buffer keeps the second
        let sent = frames();
        let mut t = StreamTransport::new(Scripted::new(&sent, vec![usize::MAX]));
        for frame in &sent {
            assert!(matches!(t.recv().unwrap(), Recv::Frame(f) if &f == frame));
        }
        assert_eq!(t.get_ref().reads, 1, "one read served every frame");
        assert!(matches!(t.recv().unwrap(), Recv::Eof));
        // sends bypass the read buffer: one frame, written whole
        t.send(&Frame::ok("done")).unwrap();
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::ok("done")).unwrap();
        assert_eq!(t.get_ref().output, wire);
    }
}
