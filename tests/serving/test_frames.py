"""Tests for the length-prefixed JSON frame protocol."""

import socket
import struct
import threading
import time

import pytest

from repro.errors import ChannelClosedError, FrameProtocolError
from repro.serving import frames
from repro.serving import (
    MAX_FRAME_BYTES,
    FrameChannel,
    decode_frame,
    encode_frame,
)


@pytest.fixture()
def channel_pair():
    left_sock, right_sock = socket.socketpair()
    left, right = FrameChannel(left_sock), FrameChannel(right_sock)
    yield left, right
    left.close()
    right.close()


class TestFrameCodec:
    def test_roundtrip(self):
        message = {"op": "translate", "text": "où?", "id": 7}
        frame = encode_frame(message)
        length = struct.unpack("!I", frame[:4])[0]
        assert length == len(frame) - 4
        assert decode_frame(frame[4:]) == message

    def test_encode_rejects_non_object(self):
        with pytest.raises(FrameProtocolError):
            encode_frame(["not", "an", "object"])

    def test_encode_rejects_oversized(self):
        with pytest.raises(FrameProtocolError):
            encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})

    def test_decode_rejects_garbage(self):
        with pytest.raises(FrameProtocolError):
            decode_frame(b"\xff\xfe not json")

    def test_decode_rejects_non_object(self):
        with pytest.raises(FrameProtocolError):
            decode_frame(b"[1, 2, 3]")


class TestFrameChannel:
    def test_roundtrip(self, channel_pair):
        left, right = channel_pair
        left.send({"op": "ping", "id": 1})
        assert right.recv(timeout=5.0) == {"op": "ping", "id": 1}
        right.send({"op": "pong", "id": 1})
        assert left.recv(timeout=5.0) == {"op": "pong", "id": 1}

    def test_timeout_consumes_nothing(self, channel_pair):
        """A timed-out recv must leave the stream aligned: the next
        recv still reads whole frames — this is what lets a request
        deadline expire without poisoning the worker channel."""
        left, right = channel_pair
        with pytest.raises(TimeoutError):
            right.recv(timeout=0.05)
        left.send({"op": "late", "id": 2})
        assert right.recv(timeout=5.0) == {"op": "late", "id": 2}

    def test_eof_raises_channel_closed(self, channel_pair):
        left, right = channel_pair
        left.close()
        with pytest.raises(ChannelClosedError):
            right.recv(timeout=5.0)

    def test_eof_mid_frame_raises_channel_closed(self):
        left_sock, right_sock = socket.socketpair()
        right = FrameChannel(right_sock)
        # A header promising more bytes than ever arrive, then EOF.
        left_sock.sendall(struct.pack("!I", 64) + b"{\"half\":")
        left_sock.close()
        with pytest.raises(ChannelClosedError):
            right.recv(timeout=5.0)
        right.close()

    def test_oversized_header_breaks_channel(self):
        left_sock, right_sock = socket.socketpair()
        right = FrameChannel(right_sock)
        left_sock.sendall(struct.pack("!I", MAX_FRAME_BYTES + 1))
        with pytest.raises(FrameProtocolError):
            right.recv(timeout=5.0)
        # The channel refuses further use rather than de-sync silently.
        with pytest.raises(ChannelClosedError):
            right.recv(timeout=5.0)
        left_sock.close()
        right.close()

    def test_corrupt_payload_breaks_channel(self, channel_pair):
        left, right = channel_pair
        left._sock.sendall(struct.pack("!I", 3) + b"[1]")
        with pytest.raises(FrameProtocolError):
            right.recv(timeout=5.0)
        with pytest.raises(ChannelClosedError):
            right.recv(timeout=5.0)

    def test_send_after_peer_close_raises(self, channel_pair):
        left, right = channel_pair
        right.close()
        with pytest.raises(ChannelClosedError):
            # One send may land in the socket buffer; looping hits the
            # broken pipe deterministically.
            for _ in range(64):
                left.send({"op": "ping", "pad": "x" * 4096})

    def test_close_is_idempotent(self, channel_pair):
        left, _ = channel_pair
        left.close()
        left.close()
        with pytest.raises(ChannelClosedError):
            left.send({"op": "ping"})

    def test_large_frame_roundtrip(self, channel_pair):
        left, right = channel_pair
        message = {"texts": ["question " + "x" * 100] * 500}
        received = {}

        def reader():
            received.update(right.recv(timeout=10.0))

        thread = threading.Thread(target=reader)
        thread.start()
        left.send(message)
        thread.join(10.0)
        assert received == message

    def test_interleaved_frames_stay_ordered(self, channel_pair):
        left, right = channel_pair
        for i in range(50):
            left.send({"id": i})
        assert [right.recv(timeout=5.0)["id"] for i in range(50)] == list(
            range(50)
        )

    def test_buffered_frame_is_returned_without_waiting(self, channel_pair):
        """Two frames in one write: the second is already buffered, so
        a short timeout must still return it rather than wait on the
        (now empty) socket."""
        left, right = channel_pair
        left._sock.sendall(encode_frame({"id": 1}) + encode_frame({"id": 2}))
        assert right.recv(timeout=5.0) == {"id": 1}
        assert right.recv(timeout=0.01) == {"id": 2}
        with pytest.raises(TimeoutError):
            right.recv(timeout=0.05)

    def test_frame_split_across_writes_is_reassembled(self, channel_pair):
        left, right = channel_pair
        frame = encode_frame({"op": "ping", "id": 7})

        def trickle():
            for i in range(len(frame)):
                left._sock.sendall(frame[i:i + 1])
                time.sleep(0.002)

        thread = threading.Thread(target=trickle)
        thread.start()
        assert right.recv(timeout=5.0) == {"op": "ping", "id": 7}
        thread.join(5.0)

    def test_untimed_recv_waits_past_the_mid_frame_budget(
        self, channel_pair, monkeypatch
    ):
        """The mid-frame budget starts with a frame's first byte: an
        idle worker waiting for its next request must not give up
        (it used to raise after the budget and end the worker)."""
        monkeypatch.setattr(frames, "_MID_FRAME_TIMEOUT", 0.2)
        left, right = channel_pair
        timer = threading.Timer(0.6, left.send, args=({"id": 3},))
        timer.start()
        try:
            assert right.recv() == {"id": 3}
        finally:
            timer.cancel()

    def test_stall_mid_frame_breaks_the_channel(
        self, channel_pair, monkeypatch
    ):
        monkeypatch.setattr(frames, "_MID_FRAME_TIMEOUT", 0.2)
        left, right = channel_pair
        left._sock.sendall(struct.pack("!I", 64) + b'{"half":')
        with pytest.raises(FrameProtocolError):
            right.recv(timeout=5.0)
        with pytest.raises(ChannelClosedError):
            right.recv(timeout=5.0)
