//! The kernel boundary of the socket runtime: every `unsafe` line of
//! `crate::runtime` sits in this file, behind safe functions.
//!
//! A framed segment crosses the kernel as a *fragment train*. The sender
//! lays the segment's fragment datagrams end to end in one buffer and
//! [`send_train`] hands the run to the kernel in a single `sendmsg` carrying
//! a `UDP_SEGMENT` control message, which cuts it back into one UDP datagram
//! per `stride` bytes; a socket opened with [`accept_trains`] (`UDP_GRO`)
//! gets such a run back from one [`recv_train`], with the stride in a
//! control message. Nothing changes on the wire: a receiver without
//! `UDP_GRO` reads the same datagrams one at a time, and where the kernel
//! refuses either option (an old kernel, a sandbox, a platform other than
//! Linux) the same datagrams cross one system call each.

use std::io;
use std::net::{SocketAddr, UdpSocket};

/// Datagrams the kernel cuts out of one `UDP_SEGMENT` send at most
/// (`UDP_MAX_SEGMENTS`).
const MAX_TRAIN_DATAGRAMS: usize = 64;

/// Largest UDP payload over IPv4 (65 535 − 20 − 8), which one train's bytes
/// must fit like any datagram's.
const MAX_TRAIN_BYTES: usize = 65_507;

/// Kernel buffer size requested for every peer socket. A single ghost
/// exchange of a large-grid workload fragments into hundreds of datagrams
/// arriving as one burst; the ~208 KiB default `rmem` drops most of such a
/// burst, and every dropped fragment voids its whole segment's reassembly
/// and triggers a retransmission of the full ghost — a feedback loop that
/// can keep a large run from ever converging. Best-effort: the kernel
/// clamps the request to `net.core.{r,w}mem_max`.
const SOCKET_BUFFER_BYTES: i32 = 4 << 20;

/// How the datagrams of a [`send_train`] crossed into the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainPath {
    /// One `sendmsg` per run of up to 64 datagrams (`UDP_SEGMENT`).
    Segmented,
    /// One `send_to` per datagram: the train was a single datagram, or the
    /// kernel refused to segment.
    PerDatagram,
}

/// Send `train` — datagrams of `stride` bytes laid end to end, the last one
/// possibly shorter — to `addr`, each as its own UDP datagram, in as few
/// system calls as the kernel allows: one per 64 datagrams or 65 507 bytes,
/// whichever is less. Every datagram is attempted; the first error is the
/// one returned. A send the socket would block on is not retried datagram
/// by datagram — the train is lost like any datagram a full buffer refuses.
///
/// # Panics
///
/// If `stride` is zero.
pub fn send_train(
    socket: &UdpSocket,
    train: &[u8],
    stride: usize,
    addr: SocketAddr,
) -> io::Result<TrainPath> {
    if train.len() <= stride {
        socket.send_to(train, addr)?;
        return Ok(TrainPath::PerDatagram);
    }
    let per_call = (MAX_TRAIN_BYTES / stride).clamp(1, MAX_TRAIN_DATAGRAMS) * stride;
    let mut path = TrainPath::Segmented;
    let mut first_error = None;
    for run in train.chunks(per_call) {
        let segmented = if run.len() <= stride {
            socket.send_to(run, addr).map(drop)
        } else {
            os::send_segmented(socket, run, stride, addr)
        };
        match segmented {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                first_error.get_or_insert(e);
            }
            Err(_) => {
                path = TrainPath::PerDatagram;
                for datagram in run.chunks(stride) {
                    if let Err(e) = socket.send_to(datagram, addr) {
                        first_error.get_or_insert(e);
                    }
                }
            }
        }
    }
    first_error.map_or(Ok(path), Err)
}

/// Read whatever the kernel hands over next from `socket` into `buf` and
/// return the datagrams in it: several when a `UDP_GRO` socket delivers a
/// train, else one. A read that did not fit `buf` (`MSG_TRUNC`) is dropped
/// whole and comes back as no datagrams — its tail is gone, and with it the
/// boundaries of everything behind the cut.
pub fn recv_train<'a>(
    socket: &UdpSocket,
    buf: &'a mut [u8],
) -> io::Result<std::slice::Chunks<'a, u8>> {
    let (len, stride) = os::recv(socket, buf)?;
    Ok(buf[..len].chunks(stride.max(1)))
}

/// Ask the kernel to deliver fragment trains to `socket` whole (`UDP_GRO`);
/// from then on the socket must be read with [`recv_train`]. Returns whether
/// the kernel agreed — if not, every read is one datagram, as before.
pub fn accept_trains(socket: &UdpSocket) -> bool {
    os::enable_gro(socket).is_ok()
}

/// Grow a socket's kernel receive and send buffers to
/// `SOCKET_BUFFER_BYTES`. Failures are ignored — the run still works at the
/// default size, just with more retransmissions.
pub(crate) fn grow_socket_buffers(socket: &UdpSocket) {
    os::set_buffer_bytes(socket, SOCKET_BUFFER_BYTES);
}

/// The raw bindings, declared here like `vendor/polling`'s epoll ones (the
/// workspace has no `libc` crate). Struct layouts are the Linux ABI, with
/// `usize` where C has `size_t`, so they hold at either pointer width.
#[cfg(target_os = "linux")]
mod os {
    use std::ffi::c_void;
    use std::io;
    use std::net::{SocketAddr, UdpSocket};
    use std::os::fd::AsRawFd;

    const SOL_SOCKET: i32 = 1;
    const SO_SNDBUF: i32 = 7;
    const SO_RCVBUF: i32 = 8;
    const SOL_UDP: i32 = 17;
    const UDP_SEGMENT: i32 = 103;
    const UDP_GRO: i32 = 104;
    const AF_INET: u16 = 2;
    const MSG_TRUNC: i32 = 0x20;

    #[repr(C)]
    struct Iovec {
        base: *mut c_void,
        len: usize,
    }

    #[repr(C)]
    struct Msghdr {
        name: *mut c_void,
        namelen: u32,
        iov: *mut Iovec,
        iovlen: usize,
        control: *mut c_void,
        controllen: usize,
        flags: i32,
    }

    #[repr(C)]
    struct SockaddrIn {
        family: u16,
        /// Network byte order.
        port: u16,
        addr: [u8; 4],
        zero: [u8; 8],
    }

    /// Control messages are aligned to, and open with, a `size_t`.
    const WORD: usize = std::mem::size_of::<usize>();

    /// `cmsghdr`: `cmsg_len` (header + data, unpadded), level, type.
    const CMSG_HEADER_BYTES: usize = WORD + 8;

    /// Room for one control message with up to eight bytes of data
    /// (`CMSG_SPACE(8)`): the `u16` of `UDP_SEGMENT` going down, the `int` of
    /// `UDP_GRO` coming up. Peer sockets enable no other option that
    /// produces control messages.
    #[repr(C, align(8))]
    struct Control([u8; CMSG_HEADER_BYTES + 8]);

    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const c_void, len: u32) -> i32;
        fn sendmsg(fd: i32, msg: *const Msghdr, flags: i32) -> isize;
        fn recvmsg(fd: i32, msg: *mut Msghdr, flags: i32) -> isize;
    }

    /// Request `bytes` of kernel receive and send buffer, best effort.
    pub(super) fn set_buffer_bytes(socket: &UdpSocket, bytes: i32) {
        let _ = set_option(socket, SOL_SOCKET, SO_RCVBUF, bytes);
        let _ = set_option(socket, SOL_SOCKET, SO_SNDBUF, bytes);
    }

    /// Turn `UDP_GRO` on.
    pub(super) fn enable_gro(socket: &UdpSocket) -> io::Result<()> {
        set_option(socket, SOL_UDP, UDP_GRO, 1)
    }

    fn set_option(socket: &UdpSocket, level: i32, name: i32, value: i32) -> io::Result<()> {
        // SAFETY: `value` outlives the call and the length passed is its
        // size; the descriptor is open for as long as `socket` is borrowed.
        let rc = unsafe {
            setsockopt(
                socket.as_raw_fd(),
                level,
                name,
                (&value as *const i32).cast(),
                std::mem::size_of::<i32>() as u32,
            )
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// One `sendmsg` of `run` with a `UDP_SEGMENT` control message of
    /// `stride`: the kernel emits one datagram per `stride` bytes.
    pub(super) fn send_segmented(
        socket: &UdpSocket,
        run: &[u8],
        stride: usize,
        addr: SocketAddr,
    ) -> io::Result<()> {
        let (SocketAddr::V4(addr), Ok(stride)) = (addr, u16::try_from(stride)) else {
            return Err(io::ErrorKind::Unsupported.into());
        };
        let name = SockaddrIn {
            family: AF_INET,
            port: addr.port().to_be(),
            addr: addr.ip().octets(),
            zero: [0; 8],
        };
        let iov = Iovec {
            base: run.as_ptr() as *mut c_void,
            len: run.len(),
        };
        let mut control = Control([0; CMSG_HEADER_BYTES + 8]);
        control.0[..WORD].copy_from_slice(&(CMSG_HEADER_BYTES + 2).to_ne_bytes());
        control.0[WORD..WORD + 4].copy_from_slice(&SOL_UDP.to_ne_bytes());
        control.0[WORD + 4..WORD + 8].copy_from_slice(&UDP_SEGMENT.to_ne_bytes());
        control.0[WORD + 8..WORD + 10].copy_from_slice(&stride.to_ne_bytes());
        let msg = Msghdr {
            name: (&name as *const SockaddrIn as *mut SockaddrIn).cast(),
            namelen: std::mem::size_of::<SockaddrIn>() as u32,
            iov: &iov as *const Iovec as *mut Iovec,
            iovlen: 1,
            control: control.0.as_mut_ptr().cast(),
            controllen: control.0.len(),
            flags: 0,
        };
        // SAFETY: `msg` points at `name`, `iov` and `control`, which live on
        // this frame until the call returns, with their exact sizes; `iov`
        // covers exactly the borrowed `run`. `sendmsg` only reads through
        // all of them (the `*mut` fields are the C struct's, not a licence).
        let sent = unsafe { sendmsg(socket.as_raw_fd(), &msg, 0) };
        if sent < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// One `recvmsg` into `buf`: `(bytes read, datagram stride)`, the
    /// stride taken from the `UDP_GRO` control message and the read's own
    /// length without one. A truncated read is reported as empty.
    pub(super) fn recv(socket: &UdpSocket, buf: &mut [u8]) -> io::Result<(usize, usize)> {
        let mut iov = Iovec {
            base: buf.as_mut_ptr().cast(),
            len: buf.len(),
        };
        let mut control = Control([0; CMSG_HEADER_BYTES + 8]);
        let mut msg = Msghdr {
            name: std::ptr::null_mut(),
            namelen: 0,
            iov: &mut iov,
            iovlen: 1,
            control: control.0.as_mut_ptr().cast(),
            controllen: control.0.len(),
            flags: 0,
        };
        // SAFETY: `msg` points at `iov` and `control`, which live on this
        // frame until the call returns; `iov` covers exactly the exclusively
        // borrowed `buf` and `controllen` is `control`'s size, so the kernel
        // writes inside both. No source address is asked for.
        let len = unsafe { recvmsg(socket.as_raw_fd(), &mut msg, 0) };
        if len < 0 {
            return Err(io::Error::last_os_error());
        }
        if msg.flags & MSG_TRUNC != 0 {
            return Ok((0, 0));
        }
        let len = len as usize;
        let written = msg.controllen.min(control.0.len());
        Ok((len, gro_stride(&control.0[..written]).unwrap_or(len)))
    }

    /// The positive `int` of the `UDP_GRO` message among the control
    /// messages the kernel wrote, if there is one.
    fn gro_stride(mut control: &[u8]) -> Option<usize> {
        let i32_at = |bytes: &[u8], at: usize| -> Option<i32> {
            Some(i32::from_ne_bytes(bytes.get(at..at + 4)?.try_into().ok()?))
        };
        while control.len() >= CMSG_HEADER_BYTES {
            let len = usize::from_ne_bytes(control[..WORD].try_into().ok()?);
            if len < CMSG_HEADER_BYTES || len > control.len() {
                return None;
            }
            if i32_at(control, WORD)? == SOL_UDP && i32_at(control, WORD + 4)? == UDP_GRO {
                let stride = i32_at(&control[..len], CMSG_HEADER_BYTES)?;
                return usize::try_from(stride).ok().filter(|&s| s > 0);
            }
            control = control.get(len.next_multiple_of(WORD)..)?;
        }
        None
    }
}

/// Everywhere else there are no trains: datagrams cross one call each.
#[cfg(not(target_os = "linux"))]
mod os {
    use std::io;
    use std::net::{SocketAddr, UdpSocket};

    pub(super) fn set_buffer_bytes(_: &UdpSocket, _: i32) {}

    pub(super) fn enable_gro(_: &UdpSocket) -> io::Result<()> {
        Err(io::ErrorKind::Unsupported.into())
    }

    pub(super) fn send_segmented(
        _: &UdpSocket,
        _: &[u8],
        _: usize,
        _: SocketAddr,
    ) -> io::Result<()> {
        Err(io::ErrorKind::Unsupported.into())
    }

    pub(super) fn recv(socket: &UdpSocket, buf: &mut [u8]) -> io::Result<(usize, usize)> {
        let (len, _) = socket.recv_from(buf)?;
        Ok((len, len))
    }
}
