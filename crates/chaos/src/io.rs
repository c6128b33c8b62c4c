//! `Read`/`Write` wrappers that turn a [`FaultPlan`] schedule into real
//! `io::Error`s.
//!
//! The wrappers sit exactly where the real failure would: a torn write
//! delivers a *prefix* of the buffer to the inner writer and then
//! errors (the bytes that made it are gone from the caller's control,
//! just like a real torn page); a short read delivers fewer bytes than
//! asked; a disconnect surfaces as `ConnectionReset`. Injected errors
//! all carry the `"injected:"` message prefix so post-mortems can tell
//! scheduled chaos from the genuine article — the code under test must
//! not (and cannot usefully) check for it.

use std::io::{self, Read, Write};
use std::sync::Arc;

use crate::plan::{FaultKind, FaultPlan, OpKind};

fn injected(kind: io::ErrorKind, what: &str) -> io::Error {
    io::Error::new(kind, format!("injected: {what}"))
}

/// Whether `e` was manufactured by this crate's injectors (test-suite
/// introspection only; production recovery paths must treat injected
/// and real errors identically).
pub fn is_injected(e: &io::Error) -> bool {
    e.to_string().contains("injected: ")
}

/// A writer that consults a fault plan on every `write`.
#[derive(Debug)]
pub struct ChaosWriter<W> {
    inner: W,
    plan: Option<Arc<FaultPlan>>,
    op: OpKind,
}

impl<W: Write> ChaosWriter<W> {
    /// Wraps `inner`; with `plan == None` the wrapper is a pass-through.
    pub fn new(inner: W, plan: Option<Arc<FaultPlan>>, op: OpKind) -> ChaosWriter<W> {
        ChaosWriter { inner, plan, op }
    }

    /// The wrapped writer.
    pub fn get_ref(&self) -> &W {
        &self.inner
    }

    /// Unwraps to the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for ChaosWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let Some(fault) = self.plan.as_ref().and_then(|p| p.decide(self.op)) else {
            return self.inner.write(buf);
        };
        let plan = self.plan.as_ref().expect("fault without plan");
        match fault.kind {
            FaultKind::Delay => {
                std::thread::sleep(plan.delay_of(fault));
                self.inner.write(buf)
            }
            FaultKind::Enospc => Err(injected(io::ErrorKind::Other, "no space left on device")),
            FaultKind::TornWrite => {
                let keep = if buf.is_empty() {
                    0
                } else {
                    (fault.magnitude as usize) % buf.len()
                };
                self.inner.write_all(&buf[..keep])?;
                let _ = self.inner.flush();
                Err(injected(io::ErrorKind::BrokenPipe, "torn write"))
            }
            FaultKind::Disconnect => Err(injected(
                io::ErrorKind::ConnectionReset,
                "disconnect mid-write",
            )),
            // Short reads never schedule on writes; treat defensively.
            FaultKind::ShortRead => self.inner.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A reader that consults a fault plan on every `read`.
#[derive(Debug)]
pub struct ChaosReader<R> {
    inner: R,
    plan: Option<Arc<FaultPlan>>,
    op: OpKind,
}

impl<R: Read> ChaosReader<R> {
    /// Wraps `inner`; with `plan == None` the wrapper is a pass-through.
    pub fn new(inner: R, plan: Option<Arc<FaultPlan>>, op: OpKind) -> ChaosReader<R> {
        ChaosReader { inner, plan, op }
    }

    /// The wrapped reader.
    pub fn get_ref(&self) -> &R {
        &self.inner
    }
}

impl<R: Read> Read for ChaosReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let Some(fault) = self.plan.as_ref().and_then(|p| p.decide(self.op)) else {
            return self.inner.read(buf);
        };
        let plan = self.plan.as_ref().expect("fault without plan");
        match fault.kind {
            FaultKind::Delay => {
                std::thread::sleep(plan.delay_of(fault));
                self.inner.read(buf)
            }
            FaultKind::ShortRead => {
                // Deliver at least one byte so a short read is a slow
                // frame, not a spurious EOF.
                let keep = if buf.len() <= 1 {
                    buf.len()
                } else {
                    1 + (fault.magnitude as usize) % (buf.len() - 1)
                };
                self.inner.read(&mut buf[..keep])
            }
            FaultKind::Disconnect => Err(injected(
                io::ErrorKind::ConnectionReset,
                "disconnect mid-read",
            )),
            // Write-class faults never schedule on reads.
            FaultKind::TornWrite | FaultKind::Enospc => self.inner.read(buf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultSpec;

    /// A plan whose storage writes always tear.
    fn always_torn() -> Arc<FaultPlan> {
        Arc::new(FaultPlan::new(
            1,
            FaultSpec {
                torn_write_per_mille: 1000,
                ..FaultSpec::QUIET
            },
        ))
    }

    #[test]
    fn torn_write_persists_a_strict_prefix() {
        let mut sink: Vec<u8> = Vec::new();
        let plan = always_torn();
        {
            let mut w = ChaosWriter::new(&mut sink, Some(Arc::clone(&plan)), OpKind::JournalWrite);
            let err = w.write_all(b"hello world").unwrap_err();
            assert!(is_injected(&err), "unexpected error {err}");
        }
        assert!(sink.len() < b"hello world".len());
        assert_eq!(&sink[..], &b"hello world"[..sink.len()]);
        assert_eq!(plan.injected(), 1);
    }

    #[test]
    fn quiet_plan_is_transparent() {
        let mut sink: Vec<u8> = Vec::new();
        {
            let mut w = ChaosWriter::new(&mut sink, None, OpKind::JournalWrite);
            w.write_all(b"payload").unwrap();
        }
        assert_eq!(sink, b"payload");

        let mut out = [0u8; 7];
        let mut r = ChaosReader::new(&b"payload"[..], None, OpKind::WireRead);
        r.read_exact(&mut out).unwrap();
        assert_eq!(&out, b"payload");
    }

    #[test]
    fn short_reads_still_deliver_everything_eventually() {
        let plan = Arc::new(FaultPlan::new(
            9,
            FaultSpec {
                short_read_per_mille: 1000,
                ..FaultSpec::QUIET
            },
        ));
        let data = b"a longer payload that takes several short reads";
        let mut r = ChaosReader::new(&data[..], Some(plan), OpKind::WireRead);
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
    }
}
