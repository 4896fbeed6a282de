"""Set-up of one benchmark workload, run as its own process and timed whole:
interpreter start, importing bolab, and resolving the workload's configs.

    python3 setup_probe.py <src dir> <command>=<config.json> ...
"""

import json
import sys


def main(argv):
    src, *pairs = argv
    sys.path.insert(0, src)
    from bolab.cli import resolve_config

    for pair in pairs:
        command, path = pair.split("=", 1)
        with open(path) as fh:
            resolve_config(command, json.load(fh))


if __name__ == "__main__":
    main(sys.argv[1:])
