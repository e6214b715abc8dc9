"""Shared plumbing for the spark-submit entrypoints."""
from __future__ import annotations

import os
import sys


def get_spark(app: str):
    """A SparkSession for job mode (mirrors conftest's settings)."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        # no "[Stage n:>" progress bars in the tables a job prints
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )


def results_dir() -> str:
    d = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "results")
    os.makedirs(d, exist_ok=True)
    return d


def emit(title: str, frame) -> None:
    print(f"\n=== {title} ===")
    print(frame.to_string())
    sys.stdout.flush()
