"""Print the non-blank lines of each src/fdsic module and their total.

This is the count ROADMAP tracks, the same as
`cat src/fdsic/*.py | grep -cv '^\\s*$'`:

    python scripts/src_lines.py
"""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fdsic"


def count_lines() -> dict:
    """{module file name: non-blank lines}, in file name order."""
    return {path.name: sum(1 for line in path.read_text().splitlines() if line.strip())
            for path in sorted(SRC.glob("*.py"))}


def main() -> None:
    counts = count_lines()
    for name, n in counts.items():
        print(f"{n:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")


if __name__ == "__main__":
    main()
