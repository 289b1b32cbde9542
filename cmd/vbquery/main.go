// Command vbquery is the verifying SQL client: it parses a small SQL
// subset, sends SELECTs to an edge server, verifies every result against
// the central server's public key, and routes INSERT/DELETE to the central
// server. A verification failure is reported loudly — it means the edge
// server returned tampered data.
//
// Usage:
//
//	vbquery -edge 127.0.0.1:7002 -central 127.0.0.1:7001 "SELECT id, cat FROM items WHERE id >= 10 AND id <= 20"
//	vbquery -edge … -central …             # REPL on stdin
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"edgeauth/internal/client"
	"edgeauth/internal/query"
	"edgeauth/internal/schema"
	"edgeauth/internal/sqlmini"
)

func main() {
	var (
		edgeAddr    = flag.String("edge", "127.0.0.1:7002", "edge server address")
		centralAddr = flag.String("central", "127.0.0.1:7001", "central server address")
	)
	flag.Parse()

	ctx := context.Background()
	cl, err := client.Dial(ctx, client.Config{EdgeAddr: *edgeAddr, CentralAddr: *centralAddr})
	if err != nil {
		log.Fatalf("vbquery: %v", err)
	}
	defer cl.Close()
	if err := cl.FetchTrustedKey(ctx); err != nil {
		log.Fatalf("vbquery: fetching trusted key: %v", err)
	}

	if flag.NArg() > 0 {
		if err := runStatement(ctx, cl, strings.Join(flag.Args(), " ")); err != nil {
			log.Fatalf("vbquery: %v", err)
		}
		return
	}

	fmt.Println("vbquery — authenticated SQL. End statements with Enter; Ctrl-D exits.")
	scanner := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("vb> ")
		if !scanner.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if strings.EqualFold(line, "exit") || strings.EqualFold(line, "quit") {
			return
		}
		if err := runStatement(ctx, cl, line); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
		}
	}
}

func runStatement(ctx context.Context, cl *client.Client, sql string) error {
	st, err := sqlmini.Parse(sql)
	if err != nil {
		return err
	}
	switch s := st.(type) {
	case *sqlmini.SelectStmt:
		return runSelect(ctx, cl, s)
	case *sqlmini.InsertStmt:
		sch, err := cl.Schema(ctx, s.Table)
		if err != nil {
			return err
		}
		tuples := make([]schema.Tuple, len(s.Rows))
		for i, row := range s.Rows {
			tup, err := sqlmini.BindValues(sch, row)
			if err != nil {
				return fmt.Errorf("row %d: %w", i+1, err)
			}
			tuples[i] = tup
		}
		// A VALUES list of any length is one frame, one group commit,
		// per-row results.
		opErrs, err := cl.InsertBatch(ctx, s.Table, tuples)
		if err != nil {
			return err
		}
		ok := 0
		for i, e := range opErrs {
			if e == nil {
				ok++
				continue
			}
			fmt.Fprintf(os.Stderr, "row %d failed: %v\n", i+1, e)
		}
		if ok == 0 {
			return fmt.Errorf("INSERT failed: 0/%d rows accepted", len(tuples))
		}
		fmt.Printf("INSERT ok: %d/%d rows group-committed at central server (edges see them after refresh)\n", ok, len(tuples))
		return nil
	case *sqlmini.DeleteStmt:
		sch, err := cl.Schema(ctx, s.Table)
		if err != nil {
			return err
		}
		preds, err := sqlmini.BindPredicates(sch, s.Where)
		if err != nil {
			return err
		}
		lo, hi, err := keyRangeOnly(sch, preds)
		if err != nil {
			return err
		}
		n, err := cl.DeleteRange(ctx, s.Table, lo, hi)
		if err != nil {
			return err
		}
		fmt.Printf("DELETE ok: %d tuples removed at central server\n", n)
		return nil
	default:
		return fmt.Errorf("unsupported statement %T", st)
	}
}

// keyRangeOnly converts DELETE predicates to a key range; the demo wire
// protocol supports key-range deletes (as in the paper's §3.4).
func keyRangeOnly(sch *schema.Schema, preds []query.Predicate) (lo, hi *schema.Datum, err error) {
	keyName := sch.KeyColumn().Name
	for _, p := range preds {
		if p.Column != keyName {
			return nil, nil, fmt.Errorf("DELETE supports key-column predicates only (key is %q)", keyName)
		}
		v := p.Value
		switch p.Op.String() {
		case "=":
			lo, hi = &v, &v
		case ">=":
			lo = &v
		case "<=":
			hi = &v
		default:
			return nil, nil, errors.New("DELETE supports =, >= and <= on the key")
		}
	}
	return lo, hi, nil
}

func runSelect(ctx context.Context, cl *client.Client, s *sqlmini.SelectStmt) error {
	sch, err := cl.Schema(ctx, s.Table)
	if err != nil {
		return err
	}
	preds, err := sqlmini.BindPredicates(sch, s.Where)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := cl.Query(ctx, s.Table, preds, s.Columns)
	if err != nil {
		if errors.Is(err, client.ErrTampered) {
			return fmt.Errorf("!! VERIFICATION FAILED — the edge server returned tampered data: %w", err)
		}
		return err
	}
	elapsed := time.Since(start)

	fmt.Println(strings.Join(res.Result.Columns, " | "))
	for _, tp := range res.Result.Tuples {
		cells := make([]string, len(tp.Values))
		for i, v := range tp.Values {
			cells[i] = v.String()
		}
		fmt.Println(strings.Join(cells, " | "))
	}
	shards := ""
	if res.ShardsQueried > 1 {
		shards = fmt.Sprintf(" across %d shards", res.ShardsQueried)
	}
	fmt.Printf("-- %d rows VERIFIED in %v (result %d B + VO %d B, %d digests%s)\n",
		len(res.Result.Tuples), elapsed.Round(time.Microsecond),
		res.ResultBytes, res.VOBytes, res.NumDigests(), shards)
	return nil
}
