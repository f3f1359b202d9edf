"""Storage-device timing models.

A :class:`DiskModel` serialises writes the way a single spindle/SSD queue
does: each write occupies the device for ``fsync_latency + bytes/bandwidth``
seconds.  Two log writers sharing one :class:`DiskModel` contend — that is
exactly the paper's "dedicated log device vs. shared device" configuration
knob, exercised by experiment E7.

:class:`NullDisk` completes writes synchronously, for unit tests and for
benchmarks that want a purely network-bound setup.
"""

from repro.common.errors import ConfigError


class NullDisk:
    """A zero-latency device: callbacks fire immediately and inline."""

    def write(self, nbytes, callback):
        """Complete the write synchronously."""
        callback()


class DiskModel:
    """A bandwidth- and latency-limited storage device.

    fsync_latency
        Fixed cost per synchronous write barrier, seconds.  Group commit
        amortises this across batched appends.
    bandwidth_bps
        Sequential write bandwidth, bytes/second.
    """

    def __init__(self, sim, fsync_latency=0.0005, bandwidth_bps=200e6):
        if fsync_latency < 0:
            raise ConfigError("fsync_latency must be non-negative")
        if bandwidth_bps <= 0:
            raise ConfigError("bandwidth_bps must be positive")
        self.sim = sim
        self.fsync_latency = fsync_latency
        self.bandwidth_bps = bandwidth_bps
        self._free_at = 0.0
        self._wedged = False
        self.writes = 0
        self.bytes_written = 0
        self.dropped_writes = 0

    def wedge(self):
        """Fail-stop the device: subsequent writes never complete.

        Models a dying disk (the firmware hang / remount-read-only
        failure mode).  The process keeps running; whatever it does
        about the missing completions is the protocol's problem —
        which the fault-injection tests check.
        """
        self._wedged = True

    def unwedge(self):
        """Bring the device back (e.g. after simulated remediation)."""
        self._wedged = False

    def write(self, nbytes, callback):
        """Schedule a durable write of *nbytes*; *callback* fires when the
        data has hit the platter (i.e. after the simulated fsync)."""
        if self._wedged:
            self.dropped_writes += 1
            return  # completion never arrives
        start = max(self.sim.now, self._free_at)
        done = start + self.fsync_latency + nbytes / self.bandwidth_bps
        self._free_at = done
        self.writes += 1
        self.bytes_written += nbytes
        self.sim.schedule_at(done, callback)
