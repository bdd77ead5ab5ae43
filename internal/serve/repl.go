package serve

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"hydra/internal/platform"
)

// REPL answers line-oriented queries from r, writing results to w — the
// stdin front-end of hydra-serve. Commands:
//
//	score <pa> <a> <pb> <b>      decision value for one pair
//	link  <pa> <a> <pb> <b>      same-person decision + score
//	topk  <pa> <a> <pb> [k]      k best candidates for account a (default 5)
//	batch <pa> <pb> <a:b> ...    score many pairs in one parallel pass
//	pairs                        list the indexed platform pairs
//	quit                         exit
//
// Errors are reported per line ("error: ...") and do not end the session;
// only a read failure or quit does.
func (e *Engine) REPL(r io.Reader, w io.Writer) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "quit" || line == "exit" {
			break
		}
		e.serveLine(line, w)
	}
	return sc.Err()
}

// serveLine executes one REPL command.
func (e *Engine) serveLine(line string, w io.Writer) {
	f := strings.Fields(line)
	switch f[0] {
	case "pairs":
		for _, pp := range e.Pairs() {
			fmt.Fprintf(w, "%s -> %s\n", pp[0], pp[1])
		}
	case "score", "link":
		if len(f) != 5 {
			fmt.Fprintf(w, "error: usage: %s <pa> <a> <pb> <b>\n", f[0])
			return
		}
		a, errA := strconv.Atoi(f[2])
		b, errB := strconv.Atoi(f[4])
		if errA != nil || errB != nil {
			fmt.Fprintf(w, "error: account ids must be integers\n")
			return
		}
		linked, s, err := e.Link(platform.ID(f[1]), a, platform.ID(f[3]), b)
		if err != nil {
			fmt.Fprintf(w, "error: %v\n", err)
			return
		}
		if f[0] == "score" {
			fmt.Fprintf(w, "score %+.6f\n", s)
		} else {
			fmt.Fprintf(w, "linked %v score %+.6f\n", linked, s)
		}
	case "topk":
		if len(f) != 4 && len(f) != 5 {
			fmt.Fprintf(w, "error: usage: topk <pa> <a> <pb> [k]\n")
			return
		}
		a, err := strconv.Atoi(f[2])
		if err != nil {
			fmt.Fprintf(w, "error: account id must be an integer\n")
			return
		}
		k := 5
		if len(f) == 5 {
			if k, err = strconv.Atoi(f[4]); err != nil {
				fmt.Fprintf(w, "error: k must be an integer\n")
				return
			}
		}
		pb := platform.ID(f[3])
		res, err := e.TopK(platform.ID(f[1]), a, pb, k)
		if err != nil {
			fmt.Fprintf(w, "error: %v\n", err)
			return
		}
		for rank, sc := range res {
			fmt.Fprintf(w, "%2d. b=%d score=%+.6f linked=%v %q\n", rank+1, sc.B, sc.Score, sc.Linked, e.Sys.Username(pb, sc.B))
		}
	case "batch":
		if len(f) < 4 {
			fmt.Fprintf(w, "error: usage: batch <pa> <pb> <a:b> [<a:b> ...]\n")
			return
		}
		pairs := make([][2]int, 0, len(f)-3)
		for _, tok := range f[3:] {
			ab := strings.SplitN(tok, ":", 2)
			if len(ab) != 2 {
				fmt.Fprintf(w, "error: bad pair %q, want a:b\n", tok)
				return
			}
			a, errA := strconv.Atoi(ab[0])
			b, errB := strconv.Atoi(ab[1])
			if errA != nil || errB != nil {
				fmt.Fprintf(w, "error: bad pair %q, want integer a:b\n", tok)
				return
			}
			pairs = append(pairs, [2]int{a, b})
		}
		scores, err := e.ScoreBatch(platform.ID(f[1]), platform.ID(f[2]), pairs)
		if err != nil {
			fmt.Fprintf(w, "error: %v\n", err)
			return
		}
		for i, s := range scores {
			fmt.Fprintf(w, "%d:%d %+.6f\n", pairs[i][0], pairs[i][1], s)
		}
	default:
		fmt.Fprintf(w, "error: unknown command %q (score|link|topk|batch|pairs|quit)\n", f[0])
	}
}
