package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/sqlx"
)

// A template is raw SQL with literal slots. The generator writes its own
// SQL text rather than rendering parsed statements, because the canonical
// rendering of the product (Statement.SQL) does not round-trip through
// sqlx.Parse; every template here is pinned by a test to parse and bind.
//
// Slot syntax inside the template text:
//
//	{i:lo:hi}  integer drawn uniformly from [lo, hi]
//	{d:lo:hi}  the previous slot's value plus a uniform draw from [lo, hi]
//	{u:lo:hi}  like i, but in distinct mode lo + a sequence number, which
//	           makes every generated statement a different statement
//	{s:list}   a quoted string drawn from the named list
type template struct {
	parts  []string // len(slots)+1 literal fragments
	slots  []slot
	update bool // statement modifies data
}

type slot struct {
	kind   byte // 'i', 'd', 'u', 's'
	lo, hi int64
	strs   []string
}

var stringLists = map[string][]string{
	"region":   {"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"},
	"nation":   {"ALGERIA", "BRAZIL", "CANADA", "EGYPT", "FRANCE", "GERMANY", "INDIA", "JAPAN", "KENYA", "PERU", "CHINA", "RUSSIA", "SAUDI ARABIA", "VIETNAM"},
	"segment":  {"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"},
	"priority": {"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"},
	"shipmode": {"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"},
	"flag":     {"R", "A", "N"},
	"status":   {"O", "F", "P"},
	"brand":    {"Brand#11", "Brand#12", "Brand#23", "Brand#34", "Brand#45", "Brand#51", "Brand#55"},
	"type":     {"ECONOMY ANODIZED STEEL", "PROMO BRUSHED COPPER", "STANDARD PLATED TIN", "LARGE POLISHED BRASS", "SMALL BURNISHED NICKEL"},
	"typepat":  {"PROMO%", "ECONOMY%", "%STEEL", "%BRASS", "LARGE%"},
	"box":      {"SM CASE", "MED BOX", "LG PACK", "JUMBO JAR", "WRAP DRUM", "MED BAG"},
	"instruct": {"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"},
}

// mustTemplate compiles template text; a malformed template is a bug in
// this file, so it panics.
func mustTemplate(text string) *template {
	t := &template{}
	rest := strings.Join(strings.Fields(text), " ")
	upper := strings.ToUpper(rest)
	t.update = !strings.HasPrefix(upper, "SELECT")
	for {
		open := strings.IndexByte(rest, '{')
		if open < 0 {
			t.parts = append(t.parts, rest)
			return t
		}
		end := strings.IndexByte(rest, '}')
		if end < open {
			panic("bench: unterminated slot in template: " + text)
		}
		t.parts = append(t.parts, rest[:open])
		f := strings.Split(rest[open+1:end], ":")
		rest = rest[end+1:]
		s := slot{kind: f[0][0]}
		switch {
		case s.kind == 's' && len(f) == 2:
			s.strs = stringLists[f[1]]
			if len(s.strs) == 0 {
				panic("bench: unknown string list " + f[1])
			}
		case strings.IndexByte("idu", s.kind) >= 0 && len(f) == 3:
			var err1, err2 error
			s.lo, err1 = strconv.ParseInt(f[1], 10, 64)
			s.hi, err2 = strconv.ParseInt(f[2], 10, 64)
			if err1 != nil || err2 != nil || s.hi < s.lo {
				panic("bench: bad slot bounds in template: " + text)
			}
		default:
			panic("bench: bad slot in template: " + text)
		}
		t.slots = append(t.slots, s)
	}
}

// render appends one statement to dst. With distinct set, 'u' slots take
// lo+seq, so two calls with different seq never render the same statement.
// The output contains no character JSON has to escape.
func (t *template) render(dst []byte, rng *rand.Rand, distinct bool, seq int64) []byte {
	var prev int64
	for i, s := range t.slots {
		dst = append(dst, t.parts[i]...)
		switch s.kind {
		case 's':
			dst = append(dst, '\'')
			dst = append(dst, s.strs[rng.Intn(len(s.strs))]...)
			dst = append(dst, '\'')
			continue
		case 'd':
			prev += s.lo + rng.Int63n(s.hi-s.lo+1)
		case 'u':
			prev = s.lo + rng.Int63n(s.hi-s.lo+1)
			if distinct {
				prev = s.lo + seq
			}
		default:
			prev = s.lo + rng.Int63n(s.hi-s.lo+1)
		}
		dst = strconv.AppendInt(dst, prev, 10)
	}
	return append(dst, t.parts[len(t.slots)]...)
}

func compile(texts []string) []*template {
	out := make([]*template, len(texts))
	for i, s := range texts {
		out[i] = mustTemplate(s)
	}
	return out
}

// Dates are days since 1970-01-01; the TPC-H range is 8035..10592.

// tpchTemplates are the statement shapes of the three daemon workloads:
// the 22 TPC-H blocks with their literals opened up, a set of narrower
// SPJG shapes, and four data-modifying statements. Every template has one
// 'u' slot so ingest-distinct can make each statement new. There is no
// INSERT: its canonical rendering drops the values, so inserts into one
// table are all the same statement to the window.
var tpchTemplates = compile([]string{
	// TPC-H shaped (indexes 0..21)
	`SELECT l_returnflag, l_linestatus, SUM(l_quantity), SUM(l_extendedprice), AVG(l_quantity), COUNT(*)
	 FROM lineitem WHERE l_shipdate <= {u:10300:10592} GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`,
	`SELECT s_acctbal, s_name, n_name, p_partkey, p_mfgr FROM part, supplier, partsupp, nation, region
	 WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey AND p_size = {i:1:50} AND s_nationkey = n_nationkey
	   AND n_regionkey = r_regionkey AND r_name = {s:region} AND ps_availqty > {u:1:9000} ORDER BY s_acctbal DESC, n_name`,
	`SELECT l_orderkey, SUM(l_extendedprice * l_discount), o_orderdate, o_shippriority FROM customer, orders, lineitem
	 WHERE c_mktsegment = {s:segment} AND c_custkey = o_custkey AND l_orderkey = o_orderkey
	   AND o_orderdate < {u:8500:10000} AND l_shipdate > {d:0:30} GROUP BY l_orderkey, o_orderdate, o_shippriority ORDER BY o_orderdate`,
	`SELECT o_orderpriority, COUNT(*) FROM orders, lineitem WHERE l_orderkey = o_orderkey
	   AND o_orderdate >= {u:8035:10300} AND o_orderdate < {d:60:120} AND l_commitdate < l_receiptdate
	 GROUP BY o_orderpriority ORDER BY o_orderpriority`,
	`SELECT n_name, SUM(l_extendedprice * l_discount) FROM customer, orders, lineitem, supplier, nation, region
	 WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
	   AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey AND r_name = {s:region}
	   AND o_orderdate >= {u:8035:10000} AND o_orderdate < {d:300:400} GROUP BY n_name ORDER BY n_name`,
	`SELECT SUM(l_extendedprice * l_discount) FROM lineitem WHERE l_shipdate >= {u:8035:10200} AND l_shipdate < {d:200:400}
	   AND l_quantity < {i:10:40}`,
	`SELECT n_name, SUM(l_extendedprice) FROM supplier, lineitem, orders, customer, nation
	 WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey AND c_custkey = o_custkey AND s_nationkey = n_nationkey
	   AND l_shipdate >= {u:8035:9800} AND l_shipdate <= {d:365:730} GROUP BY n_name ORDER BY n_name`,
	`SELECT o_orderdate, SUM(l_extendedprice * l_discount) FROM part, supplier, lineitem, orders, customer, nation, region
	 WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey AND l_orderkey = o_orderkey AND o_custkey = c_custkey
	   AND c_nationkey = n_nationkey AND n_regionkey = r_regionkey AND r_name = {s:region}
	   AND o_orderdate >= {u:8035:9800} AND o_orderdate <= {d:365:730} AND p_type = {s:type}
	 GROUP BY o_orderdate ORDER BY o_orderdate`,
	`SELECT n_name, SUM(l_extendedprice * l_discount) FROM part, supplier, lineitem, partsupp, orders, nation
	 WHERE s_suppkey = l_suppkey AND ps_suppkey = l_suppkey AND ps_partkey = l_partkey AND p_partkey = l_partkey
	   AND o_orderkey = l_orderkey AND s_nationkey = n_nationkey AND p_retailprice > {u:1000:2000}
	 GROUP BY n_name ORDER BY n_name`,
	`SELECT c_custkey, c_name, SUM(l_extendedprice * l_discount), c_acctbal, n_name FROM customer, orders, lineitem, nation
	 WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND o_orderdate >= {u:8035:10400} AND o_orderdate < {d:60:120}
	   AND l_returnflag = {s:flag} AND c_nationkey = n_nationkey
	 GROUP BY c_custkey, c_name, c_acctbal, n_name ORDER BY c_custkey`,
	`SELECT ps_partkey, SUM(ps_supplycost * ps_availqty) FROM partsupp, supplier, nation
	 WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey AND n_name = {s:nation} AND ps_availqty < {u:1000:9999}
	 GROUP BY ps_partkey ORDER BY ps_partkey`,
	`SELECT l_shipmode, COUNT(*) FROM orders, lineitem WHERE o_orderkey = l_orderkey AND l_shipmode IN ({s:shipmode}, {s:shipmode})
	   AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate
	   AND l_receiptdate >= {u:8035:10200} AND l_receiptdate < {d:300:400} GROUP BY l_shipmode ORDER BY l_shipmode`,
	`SELECT c_custkey, COUNT(*) FROM customer, orders WHERE c_custkey = o_custkey AND o_totalprice > {u:1000:500000} GROUP BY c_custkey`,
	`SELECT SUM(l_extendedprice * l_discount) FROM lineitem, part WHERE l_partkey = p_partkey
	   AND l_shipdate >= {u:8035:10500} AND l_shipdate < {d:28:31} AND p_type LIKE {s:typepat}`,
	`SELECT l_suppkey, SUM(l_extendedprice * l_discount) FROM lineitem WHERE l_shipdate >= {u:8035:10400} AND l_shipdate < {d:80:100}
	 GROUP BY l_suppkey ORDER BY l_suppkey`,
	`SELECT p_brand, p_type, p_size, COUNT(ps_suppkey) FROM partsupp, part WHERE p_partkey = ps_partkey AND p_brand <> {s:brand}
	   AND p_size IN ({i:1:10}, {i:11:20}, {i:21:30}, {i:31:40}) AND ps_supplycost < {u:10:1000}
	 GROUP BY p_brand, p_type, p_size ORDER BY p_brand`,
	`SELECT SUM(l_extendedprice) FROM lineitem, part WHERE p_partkey = l_partkey AND p_brand = {s:brand}
	   AND p_container = {s:box} AND l_quantity < {i:2:10} AND l_partkey > {u:1:1500}`,
	`SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice, SUM(l_quantity) FROM customer, orders, lineitem
	 WHERE o_totalprice > {u:300000:500000} AND c_custkey = o_custkey AND o_orderkey = l_orderkey
	 GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice ORDER BY o_totalprice DESC, o_orderdate`,
	`SELECT SUM(l_extendedprice * l_discount) FROM lineitem, part WHERE p_partkey = l_partkey
	   AND l_quantity >= {i:1:10} AND l_quantity <= {d:10:20} AND p_size BETWEEN 1 AND {u:5:15}
	   AND (p_brand = {s:brand} OR p_brand = {s:brand}) AND l_shipmode IN ('AIR', 'REG AIR')`,
	`SELECT s_name, s_address FROM supplier, nation, partsupp WHERE s_suppkey = ps_suppkey AND s_nationkey = n_nationkey
	   AND n_name = {s:nation} AND ps_availqty > {u:1000:9000} ORDER BY s_name`,
	`SELECT s_name, COUNT(*) FROM supplier, lineitem, orders, nation WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey
	   AND o_orderstatus = {s:status} AND l_receiptdate > l_commitdate AND s_nationkey = n_nationkey AND n_name = {s:nation}
	   AND l_quantity > {u:1:45} GROUP BY s_name ORDER BY s_name`,
	`SELECT c_phone, COUNT(*), SUM(c_acctbal) FROM customer WHERE c_acctbal > {u:0:9000} GROUP BY c_phone`,
	// narrower SPJG shapes (22..35)
	`SELECT o_orderkey, o_totalprice, o_orderdate FROM orders WHERE o_custkey = {u:1:1500} ORDER BY o_orderdate`,
	`SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice FROM lineitem WHERE l_orderkey = {u:1:60000}`,
	`SELECT c_name, c_address, c_phone FROM customer WHERE c_nationkey = {i:0:24} AND c_acctbal BETWEEN {u:0:5000} AND {d:500:2000}`,
	`SELECT p_name, p_retailprice FROM part WHERE p_size = {i:1:50} AND p_retailprice < {u:1000:2100} ORDER BY p_retailprice`,
	`SELECT s_name, s_acctbal FROM supplier WHERE s_acctbal > {u:0:9000} ORDER BY s_acctbal DESC`,
	`SELECT ps_suppkey, MIN(ps_supplycost) FROM partsupp WHERE ps_partkey BETWEEN {u:1:1800} AND {d:10:200} GROUP BY ps_suppkey`,
	`SELECT o_orderstatus, COUNT(*), SUM(o_totalprice) FROM orders WHERE o_orderdate BETWEEN {u:8035:10300} AND {d:30:120} GROUP BY o_orderstatus`,
	`SELECT l_shipmode, l_shipinstruct, AVG(l_discount) FROM lineitem WHERE l_shipinstruct = {s:instruct} AND l_tax < {i:1:8} AND l_suppkey < {u:10:100}
	 GROUP BY l_shipmode, l_shipinstruct`,
	`SELECT o_orderkey, c_name FROM orders, customer WHERE o_custkey = c_custkey AND o_orderpriority = {s:priority} AND o_orderdate > {u:9500:10400}`,
	`SELECT n_name, COUNT(*) FROM customer, nation WHERE c_nationkey = n_nationkey AND c_mktsegment = {s:segment} AND c_custkey < {u:100:1500} GROUP BY n_name`,
	`SELECT l_partkey, SUM(l_quantity) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND o_orderdate >= {u:8035:10500} AND o_orderdate < {d:7:14}
	 GROUP BY l_partkey`,
	`SELECT p_brand, COUNT(*) FROM part, partsupp WHERE p_partkey = ps_partkey AND ps_availqty < {u:100:5000} AND p_container = {s:box} GROUP BY p_brand ORDER BY p_brand`,
	`SELECT s_suppkey, s_name, SUM(l_extendedprice) FROM supplier, lineitem WHERE s_suppkey = l_suppkey AND l_shipdate > {u:10000:10560} GROUP BY s_suppkey, s_name`,
	`SELECT MAX(o_totalprice), MIN(o_totalprice) FROM orders WHERE o_clerk LIKE 'Clerk%' AND o_shippriority = 0 AND o_orderkey < {u:1000:60000}`,
	// data-modifying (36..39)
	`UPDATE lineitem SET l_discount = l_discount + 1 WHERE l_shipdate >= {u:10400:10592}`,
	`UPDATE orders SET o_totalprice = o_totalprice * 2 WHERE o_orderkey = {u:1:60000}`,
	`DELETE FROM orders WHERE o_orderdate < {u:8035:8200}`,
	`DELETE FROM lineitem WHERE l_shipdate < {u:8035:8100} AND l_quantity > {i:40:49}`,
})

// serveTemplates are serve-mixed's twelve signatures: the narrower shapes
// above with every range a fixed width and every threshold drawn from a
// narrow band, so that two literal draws of one template differ in text and
// in cached fragment but not in selectivity regime. Retune time depends
// steeply on which structures the statements ask for; with free-ranging
// literals it differed by half between seeds.
var serveTemplates = compile([]string{
	`SELECT o_orderkey, o_totalprice, o_orderdate FROM orders WHERE o_custkey = {i:1:1500} ORDER BY o_orderdate`,
	`SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice FROM lineitem WHERE l_orderkey = {i:1:60000}`,
	`SELECT c_name, c_address, c_phone FROM customer WHERE c_nationkey = {i:0:24} AND c_acctbal BETWEEN {i:0:8000} AND {d:1000:1000}`,
	`SELECT p_name, p_retailprice FROM part WHERE p_size = {i:1:50} AND p_retailprice < {i:1480:1520} ORDER BY p_retailprice`,
	`SELECT s_name, s_acctbal FROM supplier WHERE s_acctbal > {i:7900:8100} ORDER BY s_acctbal DESC`,
	`SELECT ps_suppkey, MIN(ps_supplycost) FROM partsupp WHERE ps_partkey BETWEEN {i:1:1800} AND {d:100:100} GROUP BY ps_suppkey`,
	`SELECT o_orderstatus, COUNT(*), SUM(o_totalprice) FROM orders WHERE o_orderdate BETWEEN {i:8035:10300} AND {d:90:90} GROUP BY o_orderstatus`,
	`SELECT l_shipmode, l_shipinstruct, AVG(l_discount) FROM lineitem WHERE l_shipinstruct = {s:instruct} AND l_suppkey BETWEEN {i:1:90} AND {d:5:5}
	 GROUP BY l_shipmode, l_shipinstruct`,
	`SELECT o_orderkey, c_name FROM orders, customer WHERE o_custkey = c_custkey AND o_orderpriority = {s:priority} AND o_orderdate BETWEEN {i:8035:10200} AND {d:180:180}`,
	`SELECT n_name, COUNT(*) FROM customer, nation WHERE c_nationkey = n_nationkey AND c_mktsegment = {s:segment} AND c_custkey BETWEEN {i:1:1200} AND {d:300:300} GROUP BY n_name`,
	`SELECT l_partkey, SUM(l_quantity) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND o_orderdate >= {i:8035:10500} AND o_orderdate < {d:10:10}
	 GROUP BY l_partkey`,
	`SELECT p_brand, COUNT(*) FROM part, partsupp WHERE p_partkey = ps_partkey AND ps_availqty BETWEEN {i:1:8000} AND {d:1500:1500} AND p_container = {s:box} GROUP BY p_brand ORDER BY p_brand`,
})

// malformed are the statements the daemon has to reject; a test pins that
// sqlx.Parse fails on each.
var malformed = []string{
	"SELECT l_orderkey FROM",
	"SELEC l_orderkey FROM lineitem",
	"SELECT l_orderkey FROM lineitem WHERE (l_quantity + l_tax) > 3",
	"SELECT o_orderkey FROM orders WHERE o_totalprice >",
	"SELECT COUNT(* FROM customer",
	"UPDATE orders SET WHERE o_orderkey = 1",
	"DELETE orders WHERE o_orderkey = 1",
	"SELECT c_name FROM customer WHERE c_acctbal > 10 trailing garbage here",
}

// stream is one connection's statement source. Streams of one run share a
// seed and differ in id; each owns its rng so goroutines never contend.
type stream struct {
	rng       *rand.Rand
	templates []*template
	distinct  bool
	id, of    int64 // this stream's number and how many streams interleave
	n         int64 // statements drawn so far
	badEvery  float64
	zipf      *rand.Zipf
	pool      []string

	sent, bad int // statements emitted, and how many of them malformed
}

// newStream builds stream id of n. malformedShare of the statements are
// drawn from malformed.
func newStream(seed int64, id, of int, templates []*template, distinct bool, malformedShare float64) *stream {
	return &stream{
		rng:       rand.New(rand.NewSource(seed*1000003 + int64(id)*7919 + 1)),
		templates: templates,
		distinct:  distinct,
		id:        int64(id),
		of:        int64(of),
		badEvery:  malformedShare,
	}
}

// withPool switches the stream to Zipf draws from a fixed pool of distinct
// statements (exponent s > 1; rank 0 is the most frequent).
func (g *stream) withPool(pool []string, s float64) *stream {
	g.pool = pool
	g.zipf = rand.NewZipf(g.rng, s, 1, uint64(len(pool)-1))
	return g
}

// next appends one statement to dst.
func (g *stream) next(dst []byte) []byte {
	g.sent++
	if g.badEvery > 0 && g.rng.Float64() < g.badEvery {
		g.bad++
		return append(dst, malformed[g.rng.Intn(len(malformed))]...)
	}
	if g.pool != nil {
		return append(dst, g.pool[g.zipf.Uint64()]...)
	}
	seq := g.n*g.of + g.id
	g.n++
	t := g.templates[g.rng.Intn(len(g.templates))]
	return t.render(dst, g.rng, g.distinct, seq)
}

// batch appends the JSON body of one POST /ingest carrying n statements.
// Statements never contain a character JSON escapes, so the body is
// written directly.
func (g *stream) batch(dst []byte, n int) []byte {
	dst = append(dst, `{"statements":["`...)
	for i := 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, `","`...)
		}
		dst = g.next(dst)
	}
	return append(dst, `"]}`...)
}

// statements returns n statements as strings, for in-process replay.
func (g *stream) statements(n int) []string {
	out := make([]string, n)
	var buf []byte
	for i := range out {
		buf = g.next(buf[:0])
		out[i] = string(buf)
	}
	return out
}

// distinctPool draws n statements that differ after canonical rendering,
// in template round-robin order so every template is represented.
func distinctPool(seed int64, templates []*template, n int) []string {
	rng := rand.New(rand.NewSource(seed*1000003 + 500009))
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	var buf []byte
	for i := 0; len(out) < n; i++ {
		buf = templates[i%len(templates)].render(buf[:0], rng, false, 0)
		stmt, err := sqlx.Parse(string(buf))
		if err != nil {
			panic(fmt.Sprintf("bench: template does not parse: %v: %s", err, buf))
		}
		if key := stmt.SQL(); !seen[key] {
			seen[key] = true
			out = append(out, string(buf))
		}
		if i > 1000*n {
			panic(fmt.Sprintf("bench: templates cannot supply %d distinct statements", n))
		}
	}
	return out
}

// benchTemplates are the statement shapes of batch-update, over the
// generic t1..t8 schema (tuner.Bench): single-table ranges, joins along the
// fk chain, grouped aggregates, and — every third or so — a statement that
// modifies data, so the §3.6 update machinery has work to do. Ranges have a
// fixed width and thresholds a narrow band, as in serveTemplates and for the
// same reason: a session's time should depend on the shapes, not on whether
// a draw happened to make a predicate selective.
var benchTemplates = compile([]string{
	`SELECT t1.a, t1.b, SUM(t1.d) FROM t1 WHERE t1.ts BETWEEN {i:8035:10000} AND {d:300:300} GROUP BY t1.a, t1.b`,
	`UPDATE t1 SET d = d + 1 WHERE b = {i:0:999}`,
	`SELECT t2.id, t2.d, t2.e FROM t2 WHERE t2.b BETWEEN {i:0:800} AND {d:85:85} ORDER BY t2.d`,
	`SELECT t1.id, t2.d FROM t1, t2 WHERE t1.fk = t2.id AND t1.a = {i:0:99} AND t2.c = {i:0:9}`,
	`DELETE FROM t3 WHERE ts < {i:8199:8235}`,
	`SELECT t3.c, COUNT(*), AVG(t3.e) FROM t3 WHERE t3.d > {i:702500:747500} GROUP BY t3.c ORDER BY t3.c`,
	`SELECT t2.a, SUM(t3.d) FROM t2, t3 WHERE t2.fk = t3.id AND t3.b < {i:207:242} GROUP BY t2.a`,
	`UPDATE t2 SET e = e + 1 WHERE a = {i:0:99} AND c = {i:0:9}`,
	`SELECT t4.id, t4.a, t4.b, t4.ts FROM t4 WHERE t4.ts > {i:10115:10185} ORDER BY t4.ts`,
	`SELECT t1.b, t1.e FROM t1 WHERE t1.e BETWEEN {i:-1000:800} AND {d:70:70} AND t1.c = {i:0:9}`,
	`INSERT INTO t4 VALUES (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)`,
	`SELECT t3.id, t4.d, t5.e FROM t3, t4, t5 WHERE t3.fk = t4.id AND t4.fk = t5.id AND t3.a = {i:0:99} AND t5.b > {i:757:792}`,
	`SELECT t5.a, t5.c, COUNT(*) FROM t5 WHERE t5.b BETWEEN {i:0:700} AND {d:150:150} GROUP BY t5.a, t5.c`,
	`UPDATE t5 SET b = b + 1 WHERE ts BETWEEN {i:8035:10000} AND {d:35:35}`,
	`SELECT t6.id, t6.pad1 FROM t6 WHERE t6.a = {i:0:99} ORDER BY t6.id`,
	`SELECT t1.a, COUNT(*) FROM t1, t2, t3 WHERE t1.fk = t2.id AND t2.fk = t3.id AND t3.c = {i:0:9} AND t1.ts > {i:9630:9770} GROUP BY t1.a`,
	`DELETE FROM t1 WHERE d < {i:9055:11045} AND a = {i:0:99}`,
	`SELECT t2.c, MAX(t2.d), MIN(t2.e) FROM t2 WHERE t2.ts BETWEEN {i:8035:10200} AND {d:165:165} GROUP BY t2.c`,
	`SELECT t7.id, t7.b, t8.a FROM t7, t8 WHERE t7.fk = t8.id AND t7.d > {i:460000:540000}`,
	`UPDATE t3 SET a = a + 1 WHERE id = {i:1:5000}`,
	`SELECT t4.b, SUM(t4.e) FROM t4, t5 WHERE t4.fk = t5.id AND t5.a < {i:29:35} GROUP BY t4.b ORDER BY t4.b`,
	`SELECT t1.id, t1.d FROM t1 WHERE t1.a = {i:0:99} AND t1.b = {i:0:999}`,
	`UPDATE t6 SET d = d * 2 WHERE c = {i:0:9} AND b < {i:325:375}`,
	`SELECT t6.c, t7.c, COUNT(*) FROM t6, t7 WHERE t6.fk = t7.id AND t6.e > {i:405:495} GROUP BY t6.c, t7.c`,
	`SELECT t3.a, t3.b, t3.d FROM t3 WHERE t3.a BETWEEN {i:0:80} AND {d:8:8} AND t3.ts < {i:9175:9325} ORDER BY t3.a, t3.b`,
	`DELETE FROM t5 WHERE e > {i:942:952}`,
	`SELECT t2.b, AVG(t2.d) FROM t1, t2 WHERE t1.fk = t2.id AND t1.c = {i:0:9} AND t2.a > {i:64:70} GROUP BY t2.b`,
	`SELECT t8.id, t8.a, t8.d FROM t8 WHERE t8.b BETWEEN {i:0:600} AND {d:225:225} ORDER BY t8.d`,
	`UPDATE t4 SET e = e - 1 WHERE fk = {i:1:1200}`,
	`SELECT t5.id, t6.d FROM t5, t6 WHERE t5.fk = t6.id AND t5.c = {i:0:9} AND t6.ts > {i:9950:10050} ORDER BY t6.d`,
	`SELECT t1.c, SUM(t1.e), COUNT(*) FROM t1 WHERE t1.d BETWEEN {i:0:800000} AND {d:85000:85000} GROUP BY t1.c`,
	`INSERT INTO t2 VALUES (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)`,
	`SELECT t4.a, t4.c, MAX(t4.d) FROM t4 WHERE t4.e < {i:-495:-405} GROUP BY t4.a, t4.c ORDER BY t4.a`,
	`SELECT t2.id, t3.b, t4.a FROM t2, t3, t4 WHERE t2.fk = t3.id AND t3.fk = t4.id AND t2.b = {i:0:999} AND t4.c = {i:0:9}`,
	`UPDATE t1 SET e = e + 2 WHERE ts > {i:10426:10454}`,
	`SELECT t7.a, SUM(t7.d) FROM t7 WHERE t7.ts BETWEEN {i:8035:9500} AND {d:550:550} GROUP BY t7.a ORDER BY t7.a`,
	`SELECT t3.id, t3.e FROM t3 WHERE t3.fk = {i:1:2500} AND t3.c = {i:0:9}`,
	`DELETE FROM t2 WHERE b = {i:0:999} AND ts < {i:8560:8640}`,
	`SELECT t5.b, t5.d, t5.ts FROM t5 WHERE t5.d > {i:830500:859500} ORDER BY t5.ts`,
	`SELECT t1.a, t2.a, COUNT(*) FROM t1, t2 WHERE t1.fk = t2.id AND t1.b < {i:101:119} GROUP BY t1.a, t2.a`,
	`UPDATE t7 SET b = b + 1 WHERE a = {i:0:99}`,
	`SELECT t6.b, AVG(t6.e) FROM t6 WHERE t6.c = {i:0:9} AND t6.ts BETWEEN {i:8035:10000} AND {d:300:300} GROUP BY t6.b`,
	`SELECT t4.id, t4.d FROM t4 WHERE t4.a = {i:0:99} AND t4.d < {i:207500:242500} ORDER BY t4.d`,
	`UPDATE t2 SET d = d + 5 WHERE id = {i:1:10000}`,
	`SELECT t3.c, t4.c, SUM(t3.d) FROM t3, t4 WHERE t3.fk = t4.id AND t4.b BETWEEN {i:0:800} AND {d:124:124} GROUP BY t3.c, t4.c`,
})
