import sys
from pathlib import Path

# the checkout root (for `perfbench`) and its src/ (for `qatkit`)
_ROOT = Path(__file__).resolve().parents[2]
for path in (_ROOT / "src", _ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
