//! The reactor layer on its own: a one-connection echo driver on a fresh
//! `Reactor`, timed from a blocking client. No protocol work happens on
//! either side, so the round trip is event loop plus loopback socket.

use crate::trace::{Tracer, NO_OP};
use prcc_reactor::{BufPool, Ctx, Driver, Lease, Reactor};
use prcc_telemetry::Registry;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

struct Echo;

impl Driver for Echo {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, frame: Lease) -> io::Result<()> {
        let mut out = ctx.pool().lease(frame.len() + 4);
        out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        out.extend_from_slice(&frame);
        ctx.send(out);
        Ok(())
    }
}

/// Median round trip in microseconds over `rounds` 16-byte frames.
pub fn echo_rtt_us(rounds: usize, tracer: &mut Tracer) -> io::Result<f64> {
    let registry = Registry::new();
    let reactor = Reactor::new("echo", 1, 1 << 20, BufPool::new(&registry), &registry)?;
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let handle = reactor.handle().clone();
    reactor.handle().listen(
        listener,
        Box::new(move |sock, _| {
            handle.register(Some(sock), Box::new(Echo));
        }),
    );
    let result = (|| {
        let mut sock = TcpStream::connect(addr)?;
        sock.set_nodelay(true)?;
        let mut frame = (16u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&[7u8; 16]);
        let mut back = vec![0u8; frame.len()];
        let mut rtts = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let t0 = Instant::now();
            tracer.span("reactor.echo", NO_OP, |_| -> io::Result<()> {
                sock.write_all(&frame)?;
                sock.read_exact(&mut back)
            })?;
            rtts.push(t0.elapsed().as_nanos() as f64 / 1e3);
            if back != frame {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "echo mismatch"));
            }
        }
        Ok(crate::stats::summarize(&mut rtts).p50)
    })();
    reactor.stop(true);
    reactor.join();
    result
}
