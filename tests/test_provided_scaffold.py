"""Sanity tests for the DuckDB oracle that backs the equivalence checks
used across the suite."""
import pandas as pd
import pytest

from repro.oracle import assert_equivalent

GRP_COUNTS = "SELECT grp, COUNT(*) AS n FROM base GROUP BY grp"


def test_oracle_accepts_equivalent(house_small):
    base = house_small[0].base
    got = base.groupBy("grp").count().withColumnRenamed("count", "n")
    assert_equivalent(got, GRP_COUNTS, base=base)


def test_oracle_rejects_wrong_result(house_small):
    base = house_small[0].base
    wrong = base.groupBy("grp").count().withColumnRenamed("count", "n").limit(1)
    with pytest.raises(AssertionError):
        assert_equivalent(wrong, GRP_COUNTS, base=base)


def test_oracle_accepts_pandas_tables(spark):
    pdf = pd.DataFrame({"a": [1, 2, 3]})
    got = spark.createDataFrame(pdf).selectExpr("a * 2 AS b")
    assert_equivalent(got, "SELECT a * 2 AS b FROM t", t=pdf)
