package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"
)

// runKeyComplete audits the cache-key surface field by field. The
// server answers identical requests from cache by content address: the
// SHA-256 of a canonical struct's JSON encoding. That scheme is only
// sound if every field of the key structs is deliberately classified —
// either it is serialized into the preimage (it changes what a run
// computes) or it is excluded with `json:"-"` AND carries a reasoned
// //drain:cachekey-exempt directive (it changes only how fast the run
// computes, like a prebuilt routing table). The analyzer enforces:
//
//   - Config.KeyStructs (sim.Params, server.canonical): an exported
//     field without a `json:"-"` tag is in-key — fine. A `json:"-"`
//     field without the directive is a finding (an undocumented
//     exclusion is exactly how a result-changing knob silently escapes
//     the key). An unexported field is invisible to encoding/json and
//     needs the directive too. A directive on a field that IS
//     serialized is a stale claim and also a finding.
//   - Config.RequestStructs (server.Request): every exported field must
//     be read somewhere in its declaring package — a request field no
//     canonicalization path consumes can never flow into the key, so
//     two requests differing in it would collide.
//
// Adding a field to sim.Params without deciding its cache-key fate is
// therefore a build failure, which is the point.
func runKeyComplete(c *Config, pkgs []*Package) []Finding {
	var out []Finding
	for _, p := range pkgs {
		if !p.Target || p.Info == nil {
			continue
		}
		for _, f := range p.Files {
			dirs, _ := p.parseDirectives(f)
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					if matchesAnyTypeSpec(p.ImportPath, ts.Name.Name, c.KeyStructs) {
						out = append(out, checkKeyStruct(p, ts.Name.Name, st, dirs)...)
					}
					if matchesAnyTypeSpec(p.ImportPath, ts.Name.Name, c.RequestStructs) {
						out = append(out, checkRequestStruct(p, ts.Name.Name, st)...)
					}
				}
			}
		}
	}
	return out
}

func matchesAnyTypeSpec(importPath, typeName string, specs []string) bool {
	for _, s := range specs {
		if matchesTypeSpec(importPath, typeName, s) {
			return true
		}
	}
	return false
}

// jsonExcluded reports whether a field's json tag is exactly "-"
// (excluded from encoding; `json:"-,"` names the field "-" instead).
func jsonExcluded(f *ast.Field) bool {
	if f.Tag == nil {
		return false
	}
	tag := reflect.StructTag(strings.Trim(f.Tag.Value, "`")).Get("json")
	name, _, _ := strings.Cut(tag, ",")
	return name == "-" && tag != "-,"
}

// checkKeyStruct classifies every field of a cache-key preimage struct.
func checkKeyStruct(p *Package, typeName string, st *ast.StructType, dirs fileDirectives) []Finding {
	var out []Finding
	for _, f := range st.Fields.List {
		exempt := p.fieldHas(dirs, f, dirCachekeyExempt)
		excluded := jsonExcluded(f)
		names := f.Names
		if len(names) == 0 {
			// Embedded field: serialized inline unless tagged away.
			if excluded && !exempt {
				out = append(out, p.finding("keycomplete", f,
					"%s embeds a field excluded from the cache key (json:\"-\") without a //drain:cachekey-exempt <reason> directive", typeName))
			}
			continue
		}
		for _, nm := range names {
			serialized := ast.IsExported(nm.Name) && !excluded
			switch {
			case serialized && exempt:
				out = append(out, p.finding("keycomplete", nm,
					"%s.%s carries //drain:cachekey-exempt but IS serialized into the cache-key preimage (stale or contradictory directive: drop it or tag the field json:\"-\")", typeName, nm.Name))
			case !serialized && !exempt:
				why := "is excluded from the cache key (json:\"-\")"
				if !ast.IsExported(nm.Name) {
					why = "is unexported, so encoding/json never puts it in the cache-key preimage"
				}
				out = append(out, p.finding("keycomplete", nm,
					"%s.%s %s without a //drain:cachekey-exempt <reason> directive: decide whether it changes results (serialize it) or only performance (keep it out, with the reason written down)", typeName, nm.Name, why))
			}
		}
	}
	return out
}

// checkRequestStruct requires every exported field of a request struct
// to be consumed somewhere in its declaring package.
func checkRequestStruct(p *Package, typeName string, st *ast.StructType) []Finding {
	fieldObjs := map[types.Object]*ast.Ident{}
	for _, f := range st.Fields.List {
		for _, nm := range f.Names {
			if !ast.IsExported(nm.Name) {
				continue
			}
			if obj := p.objectOf(nm); obj != nil {
				fieldObjs[obj] = nm
			}
		}
	}
	if len(fieldObjs) == 0 {
		return nil
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if obj := p.Info.Uses[id]; obj != nil {
				delete(fieldObjs, obj)
			}
			return true
		})
	}
	var out []Finding
	for _, nm := range fieldObjs {
		out = append(out, p.finding("keycomplete", nm,
			"%s.%s is never read in package %s: it cannot flow into the canonical form or the cache key, so requests differing only in it would collide (consume it during canonicalization or remove it)", typeName, nm.Name, p.Types.Name()))
	}
	SortFindings(out)
	return out
}
