"""Set-up probe: a fresh interpreter's import of sqcount.cli to its first handler.

    python3 perfbench/probe.py RESULT_FILE SRC_DIR CLI_ARG...

Times ``import sqcount.cli`` and ``cli.main(CLI_ARG...)`` up to the entry
of the command's handler, which is replaced by a stub that returns at once.
Nothing but ``time`` and ``sys`` is imported before the clock starts, so
every module sqcount needs is paid for in the timing.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402  (built in, already loaded)


def main() -> int:
    result, src, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from sqcount import cli

    command = argv[0]
    _, defaults, required = cli._COMMANDS[command]
    entered = []

    def stub(cfg, out_dir, t0):
        entered.append(time.perf_counter())
        return 0

    cli._COMMANDS[command] = (stub, defaults, required)
    rc = cli.main(argv)

    import json
    from pathlib import Path

    from worker import calibrate

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise RuntimeError(f"sqcount imported from {cli.__file__}, not {src}")
    if rc != 0 or not entered:
        raise RuntimeError(f"set-up probe of {command} did not reach its handler")
    Path(result).write_text(json.dumps(
        {"setup_s": entered[0] - START, "calib_s": calibrate()}), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
