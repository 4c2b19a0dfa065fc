"""Shared SparkSession bootstrap for spark-submit entrypoints.

When launched via ``spark-submit jobs/<name>.py`` the session already
exists, and it is returned as it is: its confs belong to whoever made
it. When launched via plain ``python`` this builds a local session like
the conftest fixture's. Shuffles get one partition per core
(``defaultParallelism``, the n of ``local[n]``): D_U is a chain of full
outer joins over some thousand rows, each join shuffles again, and more
partitions than cores only add tasks.
"""
from __future__ import annotations

import os


def get_spark():
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    running = SparkSession.getActiveSession()
    if running is not None:
        return running
    s = (
        SparkSession.builder.appName("repro-job")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    s.conf.set("spark.sql.shuffle.partitions", s.sparkContext.defaultParallelism)
    return s
