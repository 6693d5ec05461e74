"""The worker-channel wire format: length-prefixed JSON frames.

The shard manager and its worker processes speak a deliberately boring
protocol: every message is one *frame* — a 4-byte big-endian unsigned
length prefix followed by exactly that many bytes of UTF-8 JSON, which
must decode to a JSON **object** (the op envelope).  Length-prefixed
framing over a stream socket gives the two properties the serving tier
needs and ``pickle`` over a ``multiprocessing.Pipe`` would not:

* **language-neutral introspection** — frames are readable with any
  JSON tool, so the protocol is testable byte-by-byte and debuggable
  with ``tcpdump``;
* **no code execution on receive** — a worker compromised by a bad
  input cannot smuggle objects into the front-end process the way a
  pickle payload could.

:class:`FrameChannel` wraps a connected stream socket (the shard
manager's workers dial back to a listener on loopback; tests use
``socket.socketpair``).  Receive deadlines are implemented with
``select`` *before* the header read, so a timed-out ``recv`` consumes
nothing and the stream stays aligned; only a peer that stalls
mid-frame (pathological — frames are written with one ``sendall``)
breaks the channel, and the channel then refuses further use rather
than de-sync silently.
"""

from __future__ import annotations

import json
import select
import socket
import struct

from repro.errors import ChannelClosedError, FrameProtocolError

__all__ = [
    "FrameChannel", "KNOWN_OPS", "MAX_FRAME_BYTES", "decode_frame",
    "encode_frame",
]

#: The op vocabulary of the manager↔worker envelope.  ``hello`` flows
#: worker→manager only (the readiness signal); ``cache_export`` /
#: ``cache_seed`` are the warm-restart protocol — the manager pulls a
#: surviving worker's hottest cache entries and replays them into a
#: freshly restarted one before it rejoins the ring.  Workers answer an
#: op outside this set with a typed ``FrameProtocolError`` payload
#: rather than dying, so a newer manager degrades gracefully against an
#: older worker.
KNOWN_OPS = frozenset({
    "hello", "ping", "translate", "batch", "lint", "stats",
    "cache_export", "cache_seed", "stall", "shutdown",
})

#: Hard ceiling on one frame's payload.  Big enough for a several-
#: thousand-question batch or a full stats snapshot; small enough that
#: a corrupt length prefix cannot make the reader allocate gigabytes.
MAX_FRAME_BYTES = 32 * 1024 * 1024

#: Safety budget for finishing a frame whose header has started to
#: arrive.  A peer that goes silent mid-frame for this long is broken,
#: not slow — the stream can no longer be trusted to be aligned.
_MID_FRAME_TIMEOUT = 30.0

_HEADER = struct.Struct("!I")

#: Room offered to each ``recv``: a typical reply frame fits whole.
_RECV_BYTES = 64 * 1024


def encode_frame(obj: dict) -> bytes:
    """Serialize one message to its wire form (header + JSON payload)."""
    if not isinstance(obj, dict):
        raise FrameProtocolError(
            f"frames carry JSON objects, not {type(obj).__name__}"
        )
    payload = json.dumps(
        obj, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte ceiling"
        )
    return _HEADER.pack(len(payload)) + payload


def decode_frame(payload: bytes) -> dict:
    """Parse one frame payload (the bytes after the length prefix)."""
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise FrameProtocolError(f"frame payload is not JSON: {err}") from err
    if not isinstance(obj, dict):
        raise FrameProtocolError(
            f"frame payload must be a JSON object, got "
            f"{type(obj).__name__}"
        )
    return obj


class FrameChannel:
    """One end of a framed conversation over a stream socket.

    Not thread-safe by itself: the shard manager serializes access per
    worker with a handle lock, and each worker is single-threaded.
    """

    def __init__(self, sock: socket.socket):
        sock.setblocking(True)
        self._sock = sock
        self._broken = False
        #: bytes received but not yet returned as (part of) a frame
        self._buffer = bytearray()

    def fileno(self) -> int:
        return self._sock.fileno()

    # -- sending ---------------------------------------------------------------

    def send(self, obj: dict) -> None:
        """Write one frame; raises :class:`ChannelClosedError` when the
        peer is gone (the dispatcher's crash-detection signal)."""
        self._check_usable()
        frame = encode_frame(obj)
        try:
            self._sock.sendall(frame)
        except (BrokenPipeError, ConnectionError, OSError) as err:
            self._broken = True
            raise ChannelClosedError(
                f"peer closed the channel while sending: {err}"
            ) from err

    # -- receiving -------------------------------------------------------------

    def recv(self, timeout: float | None = None) -> dict:
        """Read one frame, waiting at most ``timeout`` seconds for it
        (``None``: wait as long as it takes).

        A timeout *before any byte of the frame arrived* raises
        ``TimeoutError`` and leaves the stream aligned — the caller can
        keep using the channel (this is how per-request deadlines work
        without poisoning the connection).  Once a frame has begun, the
        rest of it must arrive within the mid-frame budget.  EOF raises
        :class:`ChannelClosedError`; a malformed header or payload
        raises :class:`FrameProtocolError` and marks the channel
        broken.

        Bytes are read into a buffer, so a frame written with one
        ``sendall`` is usually taken in one ``recv``: two system calls
        per frame with a timeout (``select`` and ``recv``), one without.
        """
        self._check_usable()
        if not self._buffer:
            if timeout is not None:
                ready, _, _ = select.select(
                    [self._sock], [], [], max(timeout, 0.0)
                )
                if not ready:
                    raise TimeoutError(
                        f"no frame arrived within {timeout:.3f}s"
                    )
            self._receive(_HEADER.size, mid_frame=False)
        (length,) = _HEADER.unpack(self._take(_HEADER.size))
        if length > MAX_FRAME_BYTES:
            self._broken = True
            raise FrameProtocolError(
                f"frame header announces {length} bytes, over the "
                f"{MAX_FRAME_BYTES}-byte ceiling (stream corrupt?)"
            )
        payload = self._take(length)
        try:
            return decode_frame(payload)
        except FrameProtocolError:
            self._broken = True
            raise

    def _take(self, n: int) -> bytes:
        """The stream's next ``n`` bytes; any not yet buffered must
        arrive within the mid-frame budget."""
        missing = n - len(self._buffer)
        if missing > 0:
            self._sock.settimeout(_MID_FRAME_TIMEOUT)
            try:
                while missing > 0:
                    missing -= self._receive(missing, mid_frame=True)
            finally:
                try:
                    self._sock.settimeout(None)
                except OSError:  # pragma: no cover - socket already dead
                    pass
        data = bytes(self._buffer[:n])
        del self._buffer[:n]
        return data

    def _receive(self, wanted: int, mid_frame: bool) -> int:
        """One ``recv`` of at least ``wanted`` bytes' room into the
        buffer; returns how many bytes arrived."""
        try:
            chunk = self._sock.recv(min(max(wanted, _RECV_BYTES), 1 << 20))
        except (socket.timeout, TimeoutError) as err:
            self._broken = True
            raise FrameProtocolError(
                f"peer stalled mid-frame for {_MID_FRAME_TIMEOUT:.0f}s "
                f"with {wanted} bytes outstanding"
            ) from err
        except (ConnectionError, OSError) as err:
            self._broken = True
            raise ChannelClosedError(
                f"channel failed mid-read: {err}"
            ) from err
        if not chunk:
            self._broken = True
            raise ChannelClosedError(
                "peer closed the channel"
                + (f" mid-frame ({wanted} bytes outstanding)"
                   if mid_frame else "")
            )
        self._buffer += chunk
        return len(chunk)

    # -- lifecycle -------------------------------------------------------------

    def _check_usable(self) -> None:
        if self._broken:
            raise ChannelClosedError(
                "channel is broken (earlier protocol or I/O failure)"
            )

    def close(self) -> None:
        """Close the underlying socket; safe to call repeatedly."""
        self._broken = True
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - double close is fine
            pass
