"""Run one `lexgram run` in a fresh process and print its peak RSS in KiB.

Usage: python3 bench/rss_child.py SRC_DIR CONFIG OUT_DIR

The peak is the VmHWM line of /proc/self/status (Linux), the high-water
mark of this process image only; ``ru_maxrss`` would also count the
parent's pages the child held between fork and exec.  The exit code is
the one ``lexgram.cli.main`` returned.
"""
import contextlib
import io
import sys


def main() -> int:
    src, config, out = sys.argv[1:4]
    sys.path.insert(0, src)
    from lexgram import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", "-c", config, "--out", out])
    with open("/proc/self/status", encoding="ascii") as status:
        print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
    return code


if __name__ == "__main__":
    sys.exit(main())
