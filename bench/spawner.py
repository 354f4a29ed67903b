"""Start CLI calls on behalf of the benchmark and report their rusage.

Linux carries a process's peak RSS into any child it forks (the copied
memory map keeps its high-water mark, and exec records it), so a child of
the benchmark process would report at least the benchmark's own peak.
This helper stays small: it receives argv plus the child's stdin, stdout
and stderr over a SOCK_SEQPACKET socket, starts the child, answers with
its pid, reaps it with os.wait4 and answers with the exit code and the
child's own ru_maxrss in KiB. It exits when the socket closes.

    python3 spawner.py SOCKET_FD
"""

import os
import socket
import sys


def main() -> int:
    sock = socket.socket(fileno=int(sys.argv[1]))
    while True:
        message, fds, _, _ = socket.recv_fds(sock, 1 << 16, 3)
        if not message:
            return 0
        argv = message.decode().split("\0")
        actions = [(os.POSIX_SPAWN_DUP2, fd, target) for target, fd in enumerate(fds)]
        try:
            pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        finally:
            for fd in fds:
                os.close(fd)
        sock.send(str(pid).encode())
        _, status, usage = os.wait4(pid, 0)
        sock.send(f"{os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}".encode())


if __name__ == "__main__":
    sys.exit(main())
