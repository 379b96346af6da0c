"""Run the benchmark's modules against the checkout's ``src/``."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import common  # noqa: E402

common.use_checkout_sources()
