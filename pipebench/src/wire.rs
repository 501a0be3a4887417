//! The generator's producer connection: the hub's binary wire protocol
//! over a plain blocking socket, so the generator pays little per tuple
//! and never spins. Whenever the generator waits, it waits on this
//! socket too and answers a PING the moment it arrives, so the hub's
//! clock samples (and with them lateness attribution) measure the link,
//! not the generator's schedule.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::clock::{shared_now_us, wait_readable};

use gnet::clock::wire_now_us;
use gnet::wire::{
    decode_arg, decode_caps, frame_hello, frame_pong, split_message, BatchEncoder, Msg, Origin,
    FLAG_ORIGIN, LOCAL_CAPS, OP_DATA, OP_DATA_ORIGIN, OP_PING, OP_WELCOME,
};
use gstore::codec::{put_uvarint, put_uvarint_into};

/// A negotiated binary producer connection.
pub struct Producer {
    stream: TcpStream,
    /// PONG replies waiting for the next frame boundary.
    control: Vec<u8>,
    inbuf: Vec<u8>,
    read_buf: Vec<u8>,
    frame: Vec<u8>,
    welcomed: bool,
    caps: u8,
    /// Stamp batches with this origin (traced runs only).
    node_id: Option<u64>,
}

impl Producer {
    /// Connects, announces binary capability and waits for WELCOME.
    pub fn connect(addr: SocketAddr, node_id: Option<u64>) -> std::io::Result<Producer> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // Blocking writes that give up after a while, so a stalled hub
        // cannot hide the PINGs waiting to be answered.
        stream.set_write_timeout(Some(Duration::from_millis(5)))?;
        let mut p = Producer {
            stream,
            control: Vec::new(),
            inbuf: Vec::new(),
            read_buf: vec![0u8; 4096],
            frame: Vec::new(),
            welcomed: false,
            caps: 0,
            node_id,
        };
        let mut hello = Vec::new();
        frame_hello(&mut hello, LOCAL_CAPS);
        p.write_all(&hello)?;
        let deadline = Instant::now() + Duration::from_secs(10);
        while !p.welcomed {
            if Instant::now() > deadline {
                return Err(std::io::Error::new(
                    ErrorKind::TimedOut,
                    "no WELCOME from hub",
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
            p.service()?;
        }
        Ok(p)
    }

    /// The socket's file descriptor, for waiting on it with others.
    pub fn fd(&self) -> i32 {
        self.stream.as_raw_fd()
    }

    /// Waits until the shared clock reads `deadline_us`, answering
    /// PINGs as they arrive.
    pub fn wait_until(&mut self, deadline_us: u64) -> std::io::Result<()> {
        loop {
            let [ready] = wait_readable([self.fd()], Some(deadline_us));
            if ready {
                self.answer()?;
            } else if shared_now_us() >= deadline_us {
                return Ok(());
            }
        }
    }

    /// Reads what the hub sent and sends the PONGs at once. Call it
    /// only between frames.
    pub fn answer(&mut self) -> std::io::Result<()> {
        self.service()?;
        if !self.control.is_empty() {
            let control = std::mem::take(&mut self.control);
            self.write_all(&control)?;
        }
        Ok(())
    }

    /// Reads what the hub sent without blocking: WELCOME, and PINGs,
    /// whose PONGs go out before the next frame.
    fn service(&mut self) -> std::io::Result<()> {
        self.stream.set_nonblocking(true)?;
        let read = loop {
            match self.stream.read(&mut self.read_buf) {
                Ok(0) => break Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.inbuf.extend_from_slice(&self.read_buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        self.stream.set_nonblocking(false)?;
        read?;
        let mut used = 0;
        while let Some((msg, n)) = split_message(&self.inbuf[used..])
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))?
        {
            used += n;
            match msg {
                Msg::Frame {
                    op: OP_WELCOME,
                    body,
                } => {
                    self.welcomed = true;
                    self.caps = decode_caps(body).1 & LOCAL_CAPS;
                }
                Msg::Frame { op: OP_PING, body } => {
                    let t0 = decode_arg(body)
                        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))?;
                    let now = wire_now_us();
                    frame_pong(&mut self.control, t0, now, now);
                }
                _ => {}
            }
        }
        self.inbuf.drain(..used);
        Ok(())
    }

    /// The origin header for the next batch, when stamping is on.
    fn origin(&self) -> Option<Origin> {
        let node_id = self.node_id.filter(|_| self.caps & FLAG_ORIGIN != 0)?;
        Some(Origin {
            node_id,
            send_us: wire_now_us(),
            span_id: 0,
        })
    }

    /// Sends everything `enc` holds as one DATA frame.
    pub fn send_batch(&mut self, enc: &mut BatchEncoder) -> std::io::Result<()> {
        let mut frame = std::mem::take(&mut self.frame);
        frame.clear();
        match self.origin() {
            Some(origin) => enc.frame_into_origin(&mut frame, &origin),
            None => enc.frame_into(&mut frame),
        };
        let sent = self.send_frame(&frame);
        self.frame = frame;
        sent
    }

    /// Sends a pre-encoded batch re-stamped to start at `first_us`.
    pub fn send_flood(&mut self, batch: &FloodBatch, first_us: u64) -> std::io::Result<()> {
        let mut frame = std::mem::take(&mut self.frame);
        frame.clear();
        batch.frame_into(&mut frame, first_us, self.origin());
        let sent = self.send_frame(&frame);
        self.frame = frame;
        sent
    }

    fn send_frame(&mut self, frame: &[u8]) -> std::io::Result<()> {
        if !self.control.is_empty() {
            let control = std::mem::take(&mut self.control);
            self.write_all(&control)?;
        }
        self.write_all(frame)
    }

    /// Blocking write of all of `bytes`; answers PINGs while the hub
    /// keeps the socket full.
    fn write_all(&mut self, mut bytes: &[u8]) -> std::io::Result<()> {
        while !bytes.is_empty() {
            match self.stream.write(bytes) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => bytes = &bytes[n..],
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    self.service()?;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// A DATA batch encoded once and re-stamped per send: the flood
/// generator's per-tuple cost is a memcpy.
pub struct FloodBatch {
    /// Record bytes after the batch's first timestamp.
    recs: Vec<u8>,
    /// Tuples in the batch.
    pub count: u64,
    /// Microseconds from the first to the last tuple.
    pub span_us: u64,
}

impl FloodBatch {
    /// `instants` rounds of one tuple per name, `step_us` apart, with
    /// values from `value(k)`.
    pub fn new(
        names: &[Arc<str>],
        instants: u64,
        step_us: u64,
        mut value: impl FnMut(u64) -> f64,
    ) -> FloodBatch {
        let mut enc = BatchEncoder::new();
        let mut k = 0u64;
        for j in 0..instants {
            for name in names {
                enc.push(j * step_us, value(k), Some(name));
                k += 1;
            }
        }
        let mut frame = Vec::new();
        enc.frame_into(&mut frame);
        let Ok(Some((Msg::Frame { op: OP_DATA, body }, _))) = split_message(&frame) else {
            unreachable!("BatchEncoder emits one DATA frame");
        };
        // The body starts with the first timestamp, 0 here: one byte.
        FloodBatch {
            recs: body[1..].to_vec(),
            count: k,
            span_us: instants.saturating_sub(1) * step_us,
        }
    }

    /// Appends the batch as one frame starting at `first_us`.
    fn frame_into(&self, out: &mut Vec<u8>, first_us: u64, origin: Option<Origin>) {
        let mut head = [0u8; 40];
        let mut n = 0;
        let op = match origin {
            Some(o) => {
                n += put_uvarint_into(&mut head[n..], o.node_id);
                n += put_uvarint_into(&mut head[n..], o.send_us);
                n += put_uvarint_into(&mut head[n..], o.span_id);
                OP_DATA_ORIGIN
            }
            None => OP_DATA,
        };
        n += put_uvarint_into(&mut head[n..], first_us);
        out.push(gnet::wire::FRAME_SENTINEL);
        put_uvarint(out, (1 + n + self.recs.len()) as u64);
        out.push(op);
        out.extend_from_slice(&head[..n]);
        out.extend_from_slice(&self.recs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnet::wire::{decode_data, decode_origin};

    #[test]
    fn restamped_flood_batch_decodes_at_the_new_time() {
        let names: Vec<Arc<str>> = ["a", "b"].iter().map(|n| gscope::intern(n)).collect();
        let batch = FloodBatch::new(&names, 3, 1, |k| k as f64);
        assert_eq!((batch.count, batch.span_us), (6, 2));
        for origin in [
            None,
            Some(Origin {
                node_id: 7,
                send_us: 99,
                span_id: 0,
            }),
        ] {
            let mut frame = Vec::new();
            batch.frame_into(&mut frame, 1_000_000, origin);
            let Ok(Some((Msg::Frame { op, body }, used))) = split_message(&frame) else {
                panic!("not a frame");
            };
            assert_eq!(used, frame.len());
            let body = if op == OP_DATA_ORIGIN {
                let (o, n) = decode_origin(body).expect("origin");
                assert_eq!(Some(o), origin);
                &body[n..]
            } else {
                body
            };
            let mut recs = Vec::new();
            assert_eq!(decode_data(body, &mut recs), Ok(6));
            let got: Vec<(u64, f64, &str)> = recs
                .iter()
                .map(|r| (r.time_us, r.value, r.name.as_deref().unwrap_or("")))
                .collect();
            assert_eq!(
                got,
                vec![
                    (1_000_000, 0.0, "a"),
                    (1_000_000, 1.0, "b"),
                    (1_000_001, 2.0, "a"),
                    (1_000_001, 3.0, "b"),
                    (1_000_002, 4.0, "a"),
                    (1_000_002, 5.0, "b"),
                ]
            );
        }
    }
}
