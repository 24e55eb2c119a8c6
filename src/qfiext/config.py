"""Environment-controlled defaults.

QFIEXT_SEED  -- default seed for the brute-force channel-QFI oracle (int, default 0)
"""

import os


def oracle_seed() -> int:
    return int(os.environ.get("QFIEXT_SEED", "0"))
