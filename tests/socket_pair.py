"""Two ``Transport``s over the ends of one ``socket.socketpair()``.

The engine's loopback sessions run inline, with no socket, so the tests that
exercise the socket transport, or drive ``serve_session`` by hand, build
their pair here.
"""

import socket

from iotsim.protocol import Transport


def socket_pair(transcript_a=None, transcript_b=None) -> tuple[Transport, Transport]:
    sock_a, sock_b = socket.socketpair()
    return Transport(sock_a, transcript_a), Transport(sock_b, transcript_b)
