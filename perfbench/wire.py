"""Client side of the psaflow serve wire: length-prefixed JSON frames.

A frame is the 32-bit little-endian magic 0x50534146 ("PSAF"), a 32-bit
little-endian payload length, then the UTF-8 JSON payload
(src/support/net.hpp). One response frame answers each request frame.
"""
import json
import socket
import struct

MAGIC = 0x50534146
HEADER = struct.Struct("<II")


def connect(endpoint, timeout=120.0):
    """Open a TCP connection to "host:port"."""
    host, port = endpoint.rsplit(":", 1)
    sock = socket.create_connection((host, int(port)), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _recv_exact(sock, n):
    chunks = []
    while n > 0:
        chunk = sock.recv(min(n, 1 << 20))
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def send_frame(sock, payload):
    sock.sendall(HEADER.pack(MAGIC, len(payload)) + payload)


def recv_frame(sock):
    magic, length = HEADER.unpack(_recv_exact(sock, HEADER.size))
    if magic != MAGIC:
        raise ConnectionError("bad frame magic")
    return _recv_exact(sock, length)


def encode(doc):
    return json.dumps(doc, separators=(",", ":")).encode()


def call(endpoint, doc, timeout=120.0):
    """One request on a fresh connection, as psaflow-client sends it.

    Returns (response document, raw response bytes).
    """
    with connect(endpoint, timeout) as sock:
        send_frame(sock, encode(doc))
        raw = recv_frame(sock)
    return json.loads(raw), raw
