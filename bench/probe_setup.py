"""Time one set-up of a workload in a fresh interpreter and print it in seconds.

Set-up is what a run pays before its first operation: import cantorkit,
then parse and generate the workload's inputs from the seed. Usage:
python3 bench/probe_setup.py <workload> <seed>, with the checkout's src/ on PYTHONPATH.
"""

import sys
import time

start = time.perf_counter()
workload = __import__(f"workload_{sys.argv[1]}")
workload.make_inputs(int(sys.argv[2]))
print(time.perf_counter() - start)
