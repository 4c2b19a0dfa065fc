"""Regenerate one evaluation table or Exp-3 sweep and write
results/<table>.json.

    spark-submit jobs/tables.py {table2,table4,table5,table6,
                                 exp3_eps,exp3_maxl,exp3_adom,exp3_attrs}

Exits non-zero when on some task no MODis output beats Original.
"""
import sys

from _session import get_spark

from repro.experiments import tables


def main() -> int:
    if len(sys.argv) != 2 or sys.argv[1] not in tables.TABLES:
        sys.exit(f"usage: jobs/tables.py {{{','.join(tables.TABLES)}}}")
    spark = get_spark()
    try:
        return tables.main(spark, sys.argv[1])
    finally:
        spark.stop()


if __name__ == "__main__":
    sys.exit(main())
