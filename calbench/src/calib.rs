//! Host calibration: frozen reference kernels timed by thread CPU time.
//!
//! On a small shared host the speed of one core drifts by tens of
//! percent between runs, so raw wall-clock times of identical work do
//! not repeat. The benchmark therefore times a fixed reference kernel
//! next to the workload, only while the workload is paused, and rescales
//! every raw time by `R_nominal / R_measured`. The kernels never call
//! repository code, so no change to the program under test can move
//! `R_measured`.
//!
//! There are two kernels, because a host's drift does not reach all
//! work alike: [`Reference::Compute`] (an L1-resident dynamic program)
//! tracks user-space computation, [`Reference::Socket`] (a loopback TCP
//! write and read) tracks the kernel's socket path. Each workload is
//! calibrated by the one that matches where its time goes.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

/// Timed repetitions per reference sample; the sample is their median.
pub const REPS_PER_SAMPLE: usize = 50;

/// A frozen reference kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// One [`reference_kernel`] call.
    Compute,
    /// One [`SOCKET_BYTES`]-byte write and read back over a loopback TCP
    /// connection, both ends on the calling thread.
    Socket,
}

impl Reference {
    /// Nominal CPU time of one repetition in nanoseconds: about the
    /// median measured on the host the benchmark was written on
    /// (2 vCPUs). Fixed forever; it only sets the scale of calibrated
    /// times, so that they still read as milliseconds and seconds.
    pub fn nominal_ns(self) -> f64 {
        match self {
            Reference::Compute => 20_000.0,
            Reference::Socket => 4_000.0,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Reference::Compute => "compute",
            Reference::Socket => "socket",
        }
    }
}

/// Bytes per repetition of [`Reference::Socket`], about one request line.
pub const SOCKET_BYTES: usize = 128;

const STAGES: usize = 48;
const PROCS: usize = 8;

/// The frozen reference kernel: the min-bottleneck chains-to-chains
/// dynamic program over `STAGES` weights and `PROCS` heterogeneous
/// processors, on an input derived from `salt`. Its tables fit in L1, it
/// allocates nothing, and its result bits are pinned by a test, so the
/// work it does can never change.
pub fn reference_kernel(salt: u64) -> f64 {
    let mut state = salt ^ 0x9e37_79b9_7f4a_7c15;
    let mut prefix = [0.0f64; STAGES + 1];
    for i in 0..STAGES {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        prefix[i + 1] = prefix[i] + 1.0 + (state >> 44) as f64 / 1024.0;
    }
    let mut prev = [f64::INFINITY; STAGES + 1];
    let mut next = [f64::INFINITY; STAGES + 1];
    prev[0] = 0.0;
    for k in 0..PROCS {
        let speed = 1.0 + k as f64 * 0.5;
        next[0] = 0.0;
        for i in 1..=STAGES {
            let mut best = f64::INFINITY;
            for j in 0..i {
                let cand = prev[j].max((prefix[i] - prefix[j]) / speed);
                if cand < best {
                    best = cand;
                }
            }
            next[i] = best.min(prev[i]);
        }
        std::mem::swap(&mut prev, &mut next);
    }
    prev[STAGES]
}

/// CPU time consumed so far by the calling thread.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time consumed so far by the whole process (every thread).
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// A CPU affinity mask in the layout of glibc's `cpu_set_t`.
pub type CpuMask = [u64; 16];

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and both clock ids exist on every Linux
    // kernel, so the call only writes into `ts`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The calling thread's CPU affinity.
pub fn affinity() -> CpuMask {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    mask
}

/// Restricts the calling thread, and every thread it spawns afterwards,
/// to the CPUs in `mask`.
pub fn set_affinity(mask: &CpuMask) {
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) };
    assert_eq!(rc, 0, "sched_setaffinity failed");
}

/// The CPUs in `mask`, ascending.
pub fn cpus(mask: &CpuMask) -> Vec<usize> {
    (0..mask.len() * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// The mask holding only `cpu`.
pub fn only(cpu: usize) -> CpuMask {
    let mut mask = [0u64; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    mask
}

/// Pins the calling thread, and so every thread it spawns afterwards, to
/// the first CPU it may run on. A single-threaded workload then runs on
/// the very core its reference samples measure.
pub fn pin_to_first_cpu() {
    let first = cpus(&affinity())[0];
    set_affinity(&only(first));
}

/// Median thread CPU time of [`REPS_PER_SAMPLE`] timed calls of `rep`.
fn median_cpu_ns(mut rep: impl FnMut(usize)) -> f64 {
    let mut times = [0u64; REPS_PER_SAMPLE];
    for (i, t) in times.iter_mut().enumerate() {
        let start = thread_cpu_ns();
        rep(i);
        *t = thread_cpu_ns() - start;
    }
    times.sort_unstable();
    times[REPS_PER_SAMPLE / 2] as f64
}

/// Both ends of the loopback connection [`Reference::Socket`] uses.
#[derive(Debug)]
struct SocketPair {
    tx: TcpStream,
    rx: TcpStream,
}

impl SocketPair {
    fn open() -> std::io::Result<SocketPair> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let tx = TcpStream::connect(listener.local_addr()?)?;
        let (rx, _) = listener.accept()?;
        tx.set_nodelay(true)?;
        Ok(SocketPair { tx, rx })
    }

    fn round(&mut self, buf: &mut [u8; SOCKET_BYTES]) {
        self.tx.write_all(buf).expect("loopback write");
        self.rx.read_exact(buf).expect("loopback read");
    }
}

/// Reference samples taken between the workload's segments. Holds the
/// conversion from raw to calibrated time.
///
/// Each CPU of a shared host drifts on its own, within a second, so a
/// sample is taken on every CPU the calling thread may use (the thread
/// visits each in turn) and their mean stands for the host's speed.
#[derive(Debug)]
pub struct Calibrator {
    pub reference: Reference,
    /// Every reference sample of the run, in order (ns per repetition,
    /// mean over the CPUs).
    pub samples: Vec<f64>,
    /// Thread CPU time spent in reference samples, in nanoseconds.
    pub cpu_ns: u64,
    home: CpuMask,
    cpus: Vec<usize>,
    socket: Option<SocketPair>,
    salt: u64,
}

impl Calibrator {
    /// A calibrator for the calling thread's CPUs that has taken its
    /// first reference sample.
    pub fn start(reference: Reference) -> Result<Self, String> {
        let home = affinity();
        let socket = match reference {
            Reference::Compute => None,
            Reference::Socket => Some(
                SocketPair::open().map_err(|e| format!("cannot open the loopback pair: {e}"))?,
            ),
        };
        let mut cal = Calibrator {
            reference,
            samples: Vec::new(),
            cpu_ns: 0,
            cpus: cpus(&home),
            home,
            socket,
            salt: 0,
        };
        cal.sample();
        Ok(cal)
    }

    /// Takes one reference sample and returns it. Call only while every
    /// thread of the workload is paused.
    pub fn sample(&mut self) -> f64 {
        let start = thread_cpu_ns();
        let mut sum = 0.0;
        for &cpu in &self.cpus {
            if self.cpus.len() > 1 {
                set_affinity(&only(cpu));
            }
            sum += match &mut self.socket {
                None => {
                    let salt = self.salt;
                    self.salt = self.salt.wrapping_add(REPS_PER_SAMPLE as u64);
                    median_cpu_ns(|i| {
                        std::hint::black_box(reference_kernel(std::hint::black_box(
                            salt.wrapping_add(i as u64),
                        )));
                    })
                }
                Some(pair) => {
                    let mut buf = [b'x'; SOCKET_BYTES];
                    median_cpu_ns(|_| pair.round(&mut buf))
                }
            };
        }
        if self.cpus.len() > 1 {
            set_affinity(&self.home);
        }
        self.cpu_ns += thread_cpu_ns() - start;
        let r = sum / self.cpus.len() as f64;
        self.samples.push(r);
        r
    }

    /// Takes a sample and returns the factor `R_nominal / R` for the
    /// segment that ran since the previous one: `R` is the mean of the
    /// two samples bracketing it.
    pub fn close_segment(&mut self) -> f64 {
        let before = *self.samples.last().expect("calibrator was started");
        let after = self.sample();
        self.reference.nominal_ns() / (0.5 * (before + after))
    }

    /// Median reference sample of the run, in nanoseconds per repetition.
    pub fn median_ns(&self) -> f64 {
        crate::stats::median(&self.samples).expect("calibrator was started")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_kernel_output_bits_are_frozen() {
        let bits: Vec<u64> = [0u64, 1, 2, 977]
            .iter()
            .map(|&s| reference_kernel(s).to_bits())
            .collect();
        assert_eq!(bits, FROZEN_BITS);
    }

    #[test]
    fn calibration_factor_brackets_the_segment() {
        for reference in [Reference::Compute, Reference::Socket] {
            let mut cal = Calibrator::start(reference).unwrap();
            let factor = cal.close_segment();
            let mean = 0.5 * (cal.samples[0] + cal.samples[1]);
            assert_eq!(factor, reference.nominal_ns() / mean);
            assert!(cal.cpu_ns > 0);
        }
    }

    #[test]
    fn affinity_round_trips() {
        let home = affinity();
        assert!(!cpus(&home).is_empty());
        assert_eq!(cpus(&only(3)), vec![3]);
        set_affinity(&home);
        assert_eq!(affinity(), home);
    }

    #[test]
    fn cpu_clocks_advance() {
        let t = thread_cpu_ns();
        let p = process_cpu_ns();
        std::hint::black_box(reference_kernel(5));
        assert!(thread_cpu_ns() > t);
        assert!(process_cpu_ns() > p);
    }

    const FROZEN_BITS: [u64; 4] = [
        4_653_593_972_839_546_880,
        4_652_735_159_768_973_312,
        4_653_148_453_734_449_152,
        4_652_898_515_509_546_553,
    ];
}
