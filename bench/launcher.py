"""Child-process launcher: spawns one interpreter at a time and times it.

It runs as a process of its own because Linux carries the resident set size
of the spawning process into the child's ``ru_maxrss`` at exec.  Spawned
straight from the benchmark, which holds numpy, mpmath and every job's
reference values, each child would report at least the benchmark's size as
its peak.  This process imports only the standard library, so a child's
peak RSS is the child's own.

Protocol, one request at a time:
  stdin:  one JSON line {"args": [...], "err": path for the child's stderr}
  stdout: one JSON line {"code", "closed_s", "reaped_s", "maxrss_kib", "nbytes"},
          then the child's stdout, nbytes long.
Children inherit this process's environment.
"""

import json
import os
import sys
import time


def run_child(args: list, err_path: str) -> tuple[dict, bytes]:
    read_fd, write_fd = os.pipe()
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_DUP2, write_fd, 1),
               (os.POSIX_SPAWN_OPEN, 2, err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], os.environ,
                             file_actions=actions)
        os.close(write_fd)
        write_fd = -1
        chunks = []
        while chunk := os.read(read_fd, 1 << 16):
            chunks.append(chunk)
        closed = time.perf_counter() - start
        _, status, usage = os.wait4(pid, 0)
        reaped = time.perf_counter() - start
    finally:
        os.close(read_fd)
        if write_fd >= 0:
            os.close(write_fd)
    out = b"".join(chunks)
    return {"code": os.waitstatus_to_exitcode(status), "closed_s": closed, "reaped_s": reaped,
            "maxrss_kib": usage.ru_maxrss, "nbytes": len(out)}, out


def main() -> int:
    for line in sys.stdin.buffer:
        request = json.loads(line)
        header, out = run_child(request["args"], request["err"])
        sys.stdout.buffer.write(json.dumps(header).encode() + b"\n" + out)
        sys.stdout.buffer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
