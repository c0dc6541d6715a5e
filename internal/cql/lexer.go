// Package cql implements a small CQL-like continuous query language
// (Arasu, Babu, Widom [8]) covering the paper's Table 1 workloads:
//
//	Select Avg(t.v) From Src[Range 1 sec]
//	Select Count(t.v) From Src[Range 1 sec] Having t.v >= 50
//	Select Top5(AllSrcCPU.id)
//	    From AllSrcCPU[Range 1 sec], AllSrcMem[Range 1 sec]
//	    Where AllSrcMem.free >= 100000 and AllSrcCPU.id = AllSrcMem.id
//	Select Cov(SrcCPU1.value, SrcCPU2.value)
//	    From SrcCPU1[Range 1 sec], SrcCPU2[Range 1 sec]
//
// Parsed statements are planned into query.Plan fragments against a
// catalog describing the named input streams (source counts, schemas and
// data generators).
package cql

import (
	"fmt"
	"strings"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokComma
	tokDot
	tokLParen
	tokRParen
	tokLBracket
	tokRBracket
	tokOp // comparison operators: = >= <= > <
)

// token is one lexeme with its position for error reporting.
type token struct {
	kind tokenKind
	text string
	pos  int
}

// lexer tokenises a statement.
type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenises the whole input up front; CQL statements are short.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case isSpace(c):
			l.pos++
		case c == ',':
			l.emit(tokComma, ",")
		case c == '.':
			l.emit(tokDot, ".")
		case c == '(':
			l.emit(tokLParen, "(")
		case c == ')':
			l.emit(tokRParen, ")")
		case c == '[':
			l.emit(tokLBracket, "[")
		case c == ']':
			l.emit(tokRBracket, "]")
		case c == '=' || c == '>' || c == '<':
			start := l.pos
			l.pos++
			if l.pos < len(l.src) && l.src[l.pos] == '=' {
				l.pos++
			}
			l.toks = append(l.toks, token{tokOp, l.src[start:l.pos], start})
		case isDigit(c):
			start := l.pos
			for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || l.src[l.pos] == '.' || l.src[l.pos] == ',' && l.isDigitGroup()) {
				l.pos++
			}
			l.toks = append(l.toks, token{tokNumber, strings.ReplaceAll(l.src[start:l.pos], ",", ""), start})
		case isLetter(c):
			start := l.pos
			for l.pos < len(l.src) && (isLetter(l.src[l.pos]) || isDigit(l.src[l.pos])) {
				l.pos++
			}
			l.toks = append(l.toks, token{tokIdent, l.src[start:l.pos], start})
		default:
			return nil, fmt.Errorf("cql: unexpected character %q at offset %d", rune(c), l.pos)
		}
	}
	l.toks = append(l.toks, token{tokEOF, "", len(l.src)})
	return l.toks, nil
}

// isDigitGroup reports whether a comma at the current position continues
// a digit-grouped literal like 100,000 (Table 1 writes thresholds this
// way).
func (l *lexer) isDigitGroup() bool {
	return l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])
}

// The language is ASCII: the lexer walks bytes, so classifying a byte
// >= 0x80 through package unicode would read it as the Latin-1 rune of
// the same value and let half a UTF-8 sequence into an identifier.
func isSpace(c byte) bool  { return c == ' ' || '\t' <= c && c <= '\r' }
func isDigit(c byte) bool  { return '0' <= c && c <= '9' }
func isLetter(c byte) bool { return 'a' <= c|0x20 && c|0x20 <= 'z' || c == '_' }

func (l *lexer) emit(k tokenKind, text string) {
	l.toks = append(l.toks, token{k, text, l.pos})
	l.pos += len(text)
}
