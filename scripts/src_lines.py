"""Print the non-blank lines of each src/fdsic module and their total.

This is the count ROADMAP tracks, the same as
`cat src/fdsic/*.py | grep -cv '^\\s*$'`:

    python scripts/src_lines.py
"""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fdsic"


def main() -> None:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        n = sum(1 for line in path.read_text().splitlines() if line.strip())
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
